"""Golden digests of the CLI: every command's exit code, stdout and stderr.

Each case runs `main` in-process from a directory holding small fixture
files, named by bare file name so that reports and messages do not depend on
where the directory is. The digest is the sha256 of the JSON array
[exit code, stdout, stderr]; an argparse error counts as its SystemExit code.
The digests were recorded before the CLI was made table-driven, so a change
to any report byte, message or exit code shows here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import sigtensor
from sigtensor import (
    LogSignature,
    Path,
    Tensor,
    exp_log_signature,
    harness,
    lie_bracket,
    log_signature,
    pwl_signature,
    segment_signature,
)
from sigtensor.cli import _COMMANDS, main
from sigtensor.serialize import dump_json, log_signature_to_json, signature_to_json


def _write_fixtures(root):
    def put(name, obj):
        (root / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))

    path3 = {"dim": 3, "increments": [["1", "0", "2"], ["0", "1/2", "-1"], ["1", "1", "1"]]}
    put("path3.json", path3)
    put("path7.json", {"dim": 7, "increments": [["1", "0", "0", "0", "0", "0", "-1"], ["0", "1", "2", "0", "0", "0", "0"]]})
    put("ts.csv", "a,b\n0,0\n1,0\n1,1/2\n-1,2\n")
    sig = pwl_signature(Path.from_increments([[1, 2], [-1, 1], [2, 0]], dim=2), 3)
    put("sig.json", dump_json(signature_to_json(sig)))
    put("logsig.json", dump_json(log_signature_to_json(log_signature(sig))))
    confined = pwl_signature(Path.from_increments([[0, 1, 0], [0, 0, 1], [0, 2, -1]], dim=3), 3)
    put("confined.json", dump_json(signature_to_json(confined)))
    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    l = LogSignature.from_levels([Tensor.zeros(1, 2), area, Tensor.zeros(3, 2), Tensor.zeros(4, 2)], 2)
    put("pv.json", dump_json(signature_to_json(exp_log_signature(l))))
    put("seg.json", dump_json(signature_to_json(segment_signature([1, 1], 4))))
    put("t222.json", {"order": 3, "dim": 2, "entries": ["1", "0", "0", "1/2", "0", "-1", "2", "0"]})
    put("mat.json", {"order": 2, "dim": 2, "entries": ["1", "2", "3", "4"]})
    witness = {"dim": 2, "order": 2, "terms": [
        {"coeff": "1", "factors": [["1", "0"], ["1", "2"]]},
        {"coeff": "1/2", "factors": [["0", "2"], ["3", "4"]]},
    ]}
    put("witness.json", witness)
    witness["terms"][1]["coeff"] = "1/3"
    put("badwitness.json", witness)
    put("broken.json", '{"order": 2,')
    put("badentry.json", {"order": 1, "dim": 2, "entries": ["1", "x"]})


CASES = {
    "signature": ["signature", "--path", "path3.json", "--level", "3"],
    "signature-allow-large": ["signature", "--path", "path7.json", "--level", "2", "--allow-large"],
    "signature-series": ["signature", "--series", "ts.csv", "--header", "--level", "3"],
    "shuffle": ["shuffle", "--w1", "121", "--w2", "31"],
    "shuffle-commas": ["shuffle", "--w1", "1,12", "--w2", "10,2"],
    "exp": ["exp", "--logsig", "logsig.json"],
    "exp-truncate": ["exp", "--logsig", "logsig.json", "--level", "2"],
    "exp-pad": ["exp", "--logsig", "logsig.json", "--level", "5"],
    "log": ["log", "--sig", "sig.json"],
    "decompose-alpha0": ["decompose", "--path", "path3.json", "--level", "3"],
    "decompose-alpha1": ["decompose", "--path", "path3.json", "--level", "3", "--alpha", "1"],
    "decompose-alpha2": ["decompose", "--path", "path3.json", "--level", "4", "--alpha", "2"],
    "decompose-series": ["decompose", "--series", "ts.csv", "--header", "--level", "2"],
    "rank-bound": ["rank-bound", "--k", "5", "--m", "4"],
    "certify": ["certify", "--tensor", "mat.json", "--witness", "witness.json"],
    "classify222": ["classify222", "--tensor", "t222.json"],
    "symmetry": ["symmetry", "--tensor", "t222.json"],
    "sig222": ["sig222", "--params", "1, 2,1/2,-1,3"],
    "concise": ["concise", "--sig", "sig.json"],
    "concise-confined": ["concise", "--sig", "confined.json"],
    "concise-level": ["concise", "--sig", "confined.json", "--level", "2"],
    "pure-volume": ["pure-volume", "--sig", "pv.json", "--n", "2", "--k0", "3"],
    "pure-volume-fails": ["pure-volume", "--sig", "seg.json", "--n", "2", "--k0", "3"],
    "verify": ["verify", "--seed", "0", "--size", "1"],
    # exit 2: argparse
    "unknown-command": ["not-a-command"],
    "bad-word": ["shuffle", "--w1", "1a", "--w2", "3"],
    "verify-size-0": ["verify", "--size", "0"],
    "missing-source": ["signature", "--level", "2"],
    # exit 3: input and file errors
    "missing-file": ["log", "--sig", "absent.json"],
    "broken-json": ["symmetry", "--tensor", "broken.json"],
    "bad-entry": ["classify222", "--tensor", "badentry.json"],
    "sig222-four-params": ["sig222", "--params", "1,2,3,4"],
    "sig222-zero-denominator": ["sig222", "--params", "1,2,3,4,1/0"],
    "sig222-bad-param": ["sig222", "--params", "1,2,3,4,x"],
    "out-missing-dir": ["rank-bound", "--k", "4", "--m", "4", "--out", "missing/bound.json"],
    # exit 4: preconditions
    "signature-guard": ["signature", "--path", "path3.json", "--level", "9"],
    "signature-dim-guard": ["signature", "--path", "path7.json", "--level", "2"],
    "signature-warning-and-guard": ["signature", "--path", "path7.json", "--level", "7"],
    "decompose-level-1": ["decompose", "--path", "path3.json", "--level", "1"],
    "exp-negative-level": ["exp", "--logsig", "logsig.json", "--level", "-1"],
    "concise-level-high": ["concise", "--sig", "sig.json", "--level", "4"],
    "certify-bad-witness": ["certify", "--tensor", "mat.json", "--witness", "badwitness.json"],
}
FLOAT_CASES = ["signature", "shuffle", "exp", "log", "decompose-alpha1", "rank-bound", "certify",
               "classify222", "symmetry", "sig222", "concise-confined", "pure-volume", "verify"]
CASES.update({f"{name}--float": CASES[name] + ["--float"] for name in FLOAT_CASES})

GOLDEN = {
    "bad-entry": "47b362fca94143cbc76d79e7862800c5d49378fa80d09fdc52b0f07055a8eaca",
    "bad-word": "269497892c30f2ebe0f243144906fc98197eb80501f91d2fe5466014308aae86",
    "broken-json": "64ce5a7577f2414ab8f0b37c5e4c911616227e230e2b750dece7b33324e383ce",
    "certify": "d4cc2f9a11dd8323df9a6404b1731e89171e1d7f23d7f07cb59f19a69e58f6e7",
    "certify--float": "d4cc2f9a11dd8323df9a6404b1731e89171e1d7f23d7f07cb59f19a69e58f6e7",
    "certify-bad-witness": "0ff100478ae565796a5922de77c2ec942624da508604b3565ab02f8374e0ab18",
    "classify222": "0b8a97c58f65403da44debe180889e90861efe9a014d989dc9cbab1eeee46163",
    "classify222--float": "8c38150b6b46d84b8976302511c2a2289a5028c4eaf972afcea1009a954039a7",
    "concise": "ac12ca596f044dee0ceb01a01c9f981a0dd65bce3f4f3646bd6e6cf50c9d71fc",
    "concise-confined": "229b4dda004ad05ebd2ca2ec9cf138893d2ec0938934644f58273e521cd3fffb",
    "concise-confined--float": "229b4dda004ad05ebd2ca2ec9cf138893d2ec0938934644f58273e521cd3fffb",
    "concise-level": "0923562f96e6dd38f80e92ff36a9dfcb142d5073974d1cc4e27015736a5683b5",
    "concise-level-high": "e0dd43be66a382f970d3917bfa7bb4efa14d419be07127277d7c30ed2e373ccc",
    "decompose-alpha0": "66372ce1453f3ce29f2435a49dba67ccf8e56071c5e1cfd1a41b484144614b1c",
    "decompose-alpha1": "3c598001b8d0bb167f754fd58e520f761adb93919bed0cdbdfdd84f623265187",
    "decompose-alpha1--float": "86eb30664f520482018c87835291262e768c365c48a9698323c150641c848b5a",
    "decompose-alpha2": "f5d6b96f96f613aa468bcfa4a61820c4407df4b0e2096bcd16c263c7e5a046e4",
    "decompose-level-1": "96c1065f907288f759fcfdc074d9b86d472a15b58792fa8bfc6f759fb3b24627",
    "decompose-series": "bc8b7d2977e615da48ee33067381daa20538503413a226d73b38f27deefe59bf",
    "exp": "343bcc15d97550bf8cd44cfe1fe3fe3fbb06d56ca73a4f1d2910927422c576e3",
    "exp--float": "1a4ee3d40ea5798ce4ff6f3a22d5c9dac120b9253c24f93d79d4e4ae3375a1a2",
    "exp-negative-level": "97c2371e278045a9135d6e8d7e734b59b2cd5a7653723ee0138366a6dde4fbed",
    "exp-pad": "37d19c73af33172a998fb15536da776dfbd5b446819e98a854c309ca094a0aae",
    "exp-truncate": "e9c7528dd991a030b153415f0df87f6afb0102a5778e2b1ee2fb6883a48981e2",
    "log": "63a6243da2aaeccd375082c4ddf2b89ac855b83e9d223aff44cfb4f1c40f07eb",
    "log--float": "3b88da20a3317cc9a1adba8d03b462b2c966a8dbc6a964db00addec786d00037",
    "missing-file": "fbd17f0634d32e324b55044edcb1a2f9a127a8080d0f610ad07b6c81934e76ac",
    "missing-source": "7eff254552ef256c6dffeb4082caab84acd5e934614776bab76bd8e44206e00a",
    "out-file": "6cc431ca49b5960aabb437a3691ef8cad4c55175a144cc171193cab183379e80",
    "out-file-content": "7030f1caec008a17cf11cb464ec8776eefbc0804ef19af181faf56c56da5ccef",
    "out-missing-dir": "8421b84a52aeed474cf242d094b3737639f87930c91a845a4f9b7e987906b479",
    "pure-volume": "74efd537856c82fbb2f1c42a736af1566f68cb6a8ff14380488f1cdd95125a2a",
    "pure-volume--float": "74efd537856c82fbb2f1c42a736af1566f68cb6a8ff14380488f1cdd95125a2a",
    "pure-volume-fails": "dabbdd97ada0e04442cfc2428b12d5d7cb11145cc0b5753c4b41fe064b142c68",
    "rank-bound": "80af358c49310d979e4ae887241e05964c5d5e1c0ae002a752899b43d2ec9223",
    "rank-bound--float": "80af358c49310d979e4ae887241e05964c5d5e1c0ae002a752899b43d2ec9223",
    "shuffle": "43474571c772b4aba615267cb80041f9d7e5ebfe011def14a61d058503a97ce1",
    "shuffle--float": "43474571c772b4aba615267cb80041f9d7e5ebfe011def14a61d058503a97ce1",
    "shuffle-commas": "e8ced76f4dcdbff305c83b8fe4f812eb9e6cfa1d509ddb1042d2a07e036b061a",
    "sig222": "d10fb88a6792b58daf14289158a465500f2ea493fc5c0857c4dbf630da72d992",
    "sig222--float": "f77770e3b13eadfec3ae593416abb2486571bf5162a11411e418e76a9420db82",
    "sig222-bad-param": "2467c4431283a3972b25873ca6483f3d2979525297bfd96f98da460edea2d7d9",
    "sig222-four-params": "b2d7f485def3a3fc8b2d4adce569efdba2d8401304fc40cc1b9c5dae9a477753",
    "sig222-zero-denominator": "66ffbe045a15a8486eb9e7bdaad0541f5d15813b8e1518ff1d7e64131c36c8b6",
    "signature": "324fbf0991b1e1126ef965acf7294215ae039ec00b735f4256613549ef5d65b5",
    "signature--float": "b5e1187c5d2c150d36881ffc3967edf91642550377cf8ddb487ff7b04f99a5a0",
    "signature-allow-large": "1790696385d9140b5785998248514f9b60025bf698872c756d3eccee10fc109f",
    "signature-dim-guard": "186eb6cb7e6754693d72c524ce5b2ea77abe212317e4fc579693586b50fea919",
    "signature-guard": "8a287826af86a47034797df841c0cf41da4aa335b539ef01b5db5d0a6fd36415",
    "signature-series": "ee0c4248a37a3f971d8b092421946ee363b530ba48ed980d6b3e3a36782d960a",
    "signature-warning-and-guard": "575a50f4e668dfed2bacc40c4323b2f3ab948937332f8a412a85ac7d424483e5",
    "symmetry": "02887d94f3094655ebc3ccc8fb9b9a5ef3d9d36b56b5b105893125da76adb1e8",
    "symmetry--float": "02887d94f3094655ebc3ccc8fb9b9a5ef3d9d36b56b5b105893125da76adb1e8",
    "unknown-command": "31cbfcbe5de0ded608e3510dc15eca17d4f2c8842272fc1e1bf2148c2ff7e8ff",
    "verify": "435e82a943f043bf15f2938144daa1c8a9b446afc382ab3869c79d7b17191f1c",
    "verify--float": "435e82a943f043bf15f2938144daa1c8a9b446afc382ab3869c79d7b17191f1c",
    "verify-fails": "0bdfab6dd132fe26687e190e8ba87cf31c878f2e734879a8f50df1c7a42201f6",
    "verify-size-0": "2204fc018afa04e5c581d3bc5c43d9fc51fc89aecbcacb86931556f9902d4aba",
}


def _failed_harness(seed, size):
    return {"checks": [{"name": "stub", "passed": False}], "passed": False, "seed": seed, "size": size}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SIGTENSOR_OUT_DIR", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    return tmp_path


def _digest(capsys, argv) -> str:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, out.out, out.err]).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(capsys, workdir, name):
    assert _digest(capsys, CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_fresh_interpreter_reports_like_main(capsys, workdir, command):
    # a fresh interpreter has loaded only what start-up and this command import,
    # while this process loaded every module in earlier tests
    argv = CASES["decompose-alpha0" if command == "decompose" else command]
    env = {**os.environ, "PYTHONPATH": str(FilePath(sigtensor.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "sigtensor", *argv], env=env, capture_output=True, text=True)
    assert main(argv) == 0
    assert (fresh.returncode, fresh.stdout) == (0, capsys.readouterr().out)


def test_verify_exits_1_on_a_failed_check(capsys, workdir, monkeypatch):
    monkeypatch.setattr(harness, "run_harness", _failed_harness)
    assert _digest(capsys, ["verify", "--seed", "3", "--size", "2"]) == GOLDEN["verify-fails"]


def test_out_writes_the_report_and_nothing_to_stdout(capsys, workdir):
    assert _digest(capsys, ["symmetry", "--tensor", "t222.json", "--out", "report.json"]) == GOLDEN["out-file"]
    report = (workdir / "report.json").read_text()
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN["out-file-content"]
