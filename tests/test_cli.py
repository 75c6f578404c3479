import json
import random
import sys
from fractions import Fraction
from time import perf_counter

import pytest

from sigtensor.cli import main
from sigtensor.serialize import (
    decomposition_to_json,
    dump_json,
    log_signature_to_json,
    signature_to_json,
    tensor_to_json,
)


@pytest.fixture
def axis3(tmp_path):
    target = tmp_path / "axis3.json"
    target.write_text(
        json.dumps({"dim": 3, "increments": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    )
    return str(target)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_signature_reproduces_axis_coefficients(capsys, axis3):
    code, out, _ = run(capsys, "signature", "--path", axis3, "--level", "3")
    assert code == 0
    report = json.loads(out)
    level3 = report["result"]["signature"]["levels"][3]
    entries = {i: e for i, e in enumerate(level3["entries"]) if e != "0"}
    # lexicographic offsets of the ten nonzero axis coefficients
    def off(i, j, k):
        return (i - 1) * 9 + (j - 1) * 3 + (k - 1)

    assert entries[off(1, 1, 1)] == "1/6"
    assert entries[off(1, 1, 2)] == "1/2"
    assert entries[off(1, 2, 3)] == "1"
    assert entries[off(3, 3, 3)] == "1/6"
    assert len(entries) == 10


def test_signature_at_a_negative_level_exits_4(capsys, axis3):
    code, out, err = run(capsys, "signature", "--path", axis3, "--level", "-1")
    assert (code, out, err) == (4, "", "precondition violated: max_level must be >= 0\n")


def test_shuffle_command(capsys):
    code, out, _ = run(capsys, "shuffle", "--w1", "12", "--w2", "34")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"1234": 1, "1324": 1, "1342": 1, "3124": 1, "3142": 1, "3412": 1}


def test_rank_bound_command(capsys):
    code, out, _ = run(capsys, "rank-bound", "--k", "3", "--m", "5")
    assert code == 0
    assert json.loads(out)["result"]["bound"] == 8


def test_exp_log_round_trip_via_files(capsys, tmp_path):
    from sigtensor import log_signature, segment_signature

    l = log_signature(segment_signature([1, 2], 3))
    logsig_file = tmp_path / "l.json"
    logsig_file.write_text(dump_json(log_signature_to_json(l)))
    code, out, _ = run(capsys, "exp", "--logsig", str(logsig_file))
    assert code == 0
    sig_blob = json.loads(out)["result"]["signature"]

    sig_file = tmp_path / "s.json"
    sig_file.write_text(json.dumps(sig_blob))
    code, out, _ = run(capsys, "log", "--sig", str(sig_file))
    assert code == 0
    assert json.loads(out)["result"]["log_signature"] == json.loads(dump_json(log_signature_to_json(l)))


def test_decompose_and_certify(capsys, axis3, tmp_path):
    code, out, _ = run(capsys, "decompose", "--path", axis3, "--level", "3")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["length"] == 4
    assert report["certificates"]["rank"] == {"lower": 4, "upper": 4, "status": "exact"}

    from sigtensor import Path, decompose_three_segments, pwl_signature

    sig = pwl_signature(Path.from_increments([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(dump_json(tensor_to_json(sig.level(3))))
    witness_file = tmp_path / "w.json"
    witness = decompose_three_segments([1, 0, 0], [0, 1, 0], [0, 0, 1], 3)
    witness_file.write_text(dump_json(decomposition_to_json(witness)))
    code, out, _ = run(capsys, "certify", "--tensor", str(tensor_file), "--witness", str(witness_file))
    assert code == 0
    assert json.loads(out)["result"]["status"] == "exact"


def test_classify_and_symmetry_commands(capsys, tmp_path):
    from sigtensor import Sig222Params, sig222_from_params

    t = sig222_from_params(Sig222Params.of(6, -6, 1, 1, 1))
    tensor_file = tmp_path / "t222.json"
    tensor_file.write_text(dump_json(tensor_to_json(t)))

    code, out, _ = run(capsys, "classify222", "--tensor", str(tensor_file))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["complex_rank"] == 3
    assert result["hyperdeterminant"] == "0"
    assert result["real_rank"] == "not computed"

    code, out, _ = run(capsys, "symmetry", "--tensor", str(tensor_file))
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["partial"] == ["first_k_minus_1"]
    assert rep["is_symmetric"] is False


def test_sig222_command(capsys):
    code, out, _ = run(capsys, "sig222", "--params", "6,-6,1,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["constraint_first"] is True
    assert report["result"]["complex_rank"] == 3
    assert report["certificates"]["symmetry"]["partial"] == ["first_k_minus_1"]


def test_concise_command(capsys, tmp_path):
    from sigtensor import Path, pwl_signature

    sig = pwl_signature(Path.from_increments([[0, 1, 0], [0, 0, 1]], dim=3), 4)
    sig_file = tmp_path / "sig.json"
    sig_file.write_text(dump_json(signature_to_json(sig)))
    code, out, _ = run(capsys, "concise", "--sig", str(sig_file))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["symmetrically_concise"] is False
    assert result["recovered_subspace"]["dim"] == 2
    assert result["certified_up_to_level"] == 4


def test_pure_volume_command(capsys, tmp_path):
    from sigtensor import LogSignature, Tensor, exp_log_signature, lie_bracket

    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    l = LogSignature.from_levels([Tensor.zeros(1, 2), area, Tensor.zeros(3, 2), Tensor.zeros(4, 2)], 2)
    sig_file = tmp_path / "pv.json"
    sig_file.write_text(dump_json(signature_to_json(exp_log_signature(l))))
    code, out, _ = run(capsys, "pure-volume", "--sig", str(sig_file), "--n", "2", "--k0", "3")
    assert code == 0
    assert json.loads(out)["result"]["pure_volume"] is True

    from sigtensor import segment_signature

    seg_file = tmp_path / "seg.json"
    seg_file.write_text(dump_json(signature_to_json(segment_signature([1, 1], 4))))
    code, out, _ = run(capsys, "pure-volume", "--sig", str(seg_file), "--n", "2", "--k0", "3")
    assert code == 1
    assert json.loads(out)["result"]["pure_volume"] is False


def test_verify_reproducible(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "5", "--size", "3")
    code2, out2, _ = run(capsys, "verify", "--seed", "5", "--size", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["result"]["passed"] is True


def test_series_input(capsys, tmp_path):
    csv_file = tmp_path / "ts.csv"
    csv_file.write_text("a,b\n0,0\n1,0\n1,1\n")
    code, out, _ = run(capsys, "signature", "--series", str(csv_file), "--header", "--level", "2")
    assert code == 0
    report = json.loads(out)
    level2 = report["result"]["signature"]["levels"][2]
    assert level2["entries"] == ["1/2", "1", "0", "1/2"]


def test_float_column_marked_lossy(capsys, axis3):
    code, out, _ = run(capsys, "signature", "--path", axis3, "--level", "2", "--float")
    assert code == 0
    level2 = json.loads(out)["result"]["signature"]["levels"][2]
    assert level2["entries_float_lossy"][0] == 0.5


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SIGTENSOR_OUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "rank-bound", "--k", "4", "--m", "4", "--out", "bound.json")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "bound.json").read_text())["result"]["bound"] == 13


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_unexpected_exception_exits_5_with_one_line(capsys, monkeypatch):
    from sigtensor import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "rank-bound", cli._COMMANDS["rank-bound"]._replace(run=broken))
    code, out, err = run(capsys, "rank-bound", "--k", "5", "--m", "4")
    assert code == 5 and out == ""
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_malformed_input_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "signature", "--path", str(bad))
    assert code == 3
    assert "line 1" in err


def test_precondition_violation_exits_4(capsys, axis3):
    code, _, err = run(capsys, "signature", "--path", axis3, "--level", "9")
    assert code == 4
    assert "allow-large" in err


def test_allow_large_lifts_guard(capsys, tmp_path):
    path_file = tmp_path / "p1.json"
    path_file.write_text(json.dumps({"dim": 1, "increments": [["1"]]}))
    code, out, _ = run(capsys, "signature", "--path", str(path_file), "--level", "9", "--allow-large")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["signature"]["max_level"] == 9


def test_emitted_reports_reparse(capsys, axis3):
    for argv in (
        ["signature", "--path", axis3, "--level", "2"],
        ["shuffle", "--w1", "1", "--w2", "2"],
        ["rank-bound", "--k", "5", "--m", "7"],
        ["sig222", "--params", "1,1,1,1,1"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        blob = json.loads(out)
        assert dump_json(blob) == dump_json(json.loads(dump_json(blob)))


def test_exp_level_truncates_and_pads(capsys, tmp_path):
    from sigtensor import log_signature, segment_signature

    l = log_signature(segment_signature([1, 2], 3))
    logsig_file = tmp_path / "l3.json"
    logsig_file.write_text(dump_json(log_signature_to_json(l)))

    code, out, _ = run(capsys, "exp", "--logsig", str(logsig_file), "--level", "2")
    assert code == 0
    assert json.loads(out)["result"]["signature"]["max_level"] == 2

    code, out, _ = run(capsys, "exp", "--logsig", str(logsig_file), "--level", "5")
    assert code == 0
    blob = json.loads(out)["result"]["signature"]
    assert blob["max_level"] == 5
    assert blob["levels"][5]["entries"][0] == "1/120"  # x^5/5! with x = 1


@pytest.mark.parametrize("seed", [171562805, 583769447, 1914063694, 903958662])
def test_verify_passes_on_seed_with_backtracking_hyperplane_path(capsys, seed):
    # these seeds draw hyperplane paths with b followed by -b, whose signature
    # only sees a smaller subspace; the sampler must reject and redraw them
    code, out, err = run(capsys, "verify", "--seed", str(seed), "--size", "4")
    assert code == 0, err
    assert json.loads(out)["result"]["passed"] is True


def test_log_with_string_max_level_exits_3(capsys, tmp_path):
    from sigtensor import segment_signature

    blob = signature_to_json(segment_signature([1, 2], 2))
    blob["max_level"] = "2"
    sig_file = tmp_path / "sig.json"
    sig_file.write_text(json.dumps(blob))
    code, _, err = run(capsys, "log", "--sig", str(sig_file))
    assert code == 3
    assert "Traceback" not in err and "max_level must be integers" in err


@pytest.mark.parametrize("alpha", [0, 1])
def test_decompose_exits_4_on_doctored_witness(capsys, axis3, monkeypatch, alpha):
    # the certificate is checked against the signature (or S_{k,alpha}) of the
    # path, so a decomposition that does not realize it is caught
    from sigtensor import Decomposition, decompose_s_k_alpha, ranks

    def doctored(vs, k, a):
        dec = decompose_s_k_alpha(vs, k, a)
        (coeff, factors), *rest = dec.terms
        return Decomposition(dec.dim, dec.order, ((2 * coeff, factors), *rest))

    monkeypatch.setattr(ranks, "decompose_s_k_alpha", doctored)
    code, _, err = run(capsys, "decompose", "--path", axis3, "--level", "3", "--alpha", str(alpha))
    assert code == 4
    assert "invalid witness" in err


@pytest.mark.parametrize("size", ["-5", "0"])
def test_verify_rejects_non_positive_size(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--size", size])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_verify_over_size_guard_exits_4_at_once(capsys, monkeypatch):
    # the harness costs about 16 ms per unit of size: size 1000000 would run for hours
    from sigtensor import harness

    def no_work(seed, size):
        raise AssertionError("run_harness ran past the guard")

    monkeypatch.setattr(harness, "run_harness", no_work)
    start = perf_counter()
    code, out, err = run(capsys, "verify", "--size", "1000001")
    assert perf_counter() - start < 0.5
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'size <= 1000' violated (size=1000001); pass --allow-large to override\n"


@pytest.mark.parametrize("size, allow_large, runs", [(2, False, True), (3, False, False), (3, True, True)])
def test_verify_size_guard_bound(capsys, monkeypatch, size, allow_large, runs):
    from sigtensor import cli

    monkeypatch.setattr(cli, "GUARD_VERIFY_SIZE", 2)
    argv = ["verify", "--seed", "0", "--size", str(size)] + ["--allow-large"] * allow_large
    code, out, err = run(capsys, *argv)
    if runs:
        assert code == 0, err
        assert json.loads(out)["inputs"] == {"seed": 0, "size": size}
    else:
        assert (code, out) == (4, "")
        assert "precondition 'size <= 2' violated (size=3)" in err


@pytest.mark.parametrize("command", ["symmetry", "certify"])
def test_tensor_of_huge_order_exits_3(capsys, tmp_path, command):
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 100_000_000_000, "dim": 2, "entries": []}))
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps({"dim": 2, "order": 100_000_000_000, "terms": []}))
    argv = [command, "--tensor", str(tensor_file)]
    if command == "certify":
        argv += ["--witness", str(witness_file)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "Traceback" not in err


def test_certify_witness_of_huge_order_exits_4(capsys, tmp_path):
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 2, "dim": 2, "entries": ["1", "0", "0", "1"]}))
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps({"dim": 2, "order": 100_000_000_000, "terms": []}))
    code, _, err = run(capsys, "certify", "--tensor", str(tensor_file), "--witness", str(witness_file))
    assert code == 4
    assert "invalid witness" in err


@pytest.mark.parametrize("key, value", [("dim", 2.0), ("order", True)], ids=["float_dim", "bool_order"])
def test_certify_witness_with_non_int_dim_or_order_exits_3(capsys, tmp_path, key, value):
    # a float dim crashed in the kernel, and order true certified as order 1
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 1, "dim": 2, "entries": ["1", "0"]}))
    witness = {"dim": 2, "order": 1, "terms": [{"coeff": "1", "factors": [["1", "0"]]}]}
    witness[key] = value
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps(witness))
    code, out, err = run(capsys, "certify", "--tensor", str(tensor_file), "--witness", str(witness_file))
    assert code == 3 and out == ""
    assert "Traceback" not in err and "dim and order must be integers" in err


@pytest.mark.parametrize("key, value", [("dim", -1), ("dim", 0), ("order", -1)])
def test_certify_witness_with_out_of_range_dim_or_order_exits_3(capsys, tmp_path, key, value):
    # a malformed witness was reported as one that does not realize the tensor
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 2, "dim": 2, "entries": ["1", "0", "0", "1"]}))
    witness = {"dim": 2, "order": 2, "terms": []}
    witness[key] = value
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps(witness))
    code, out, err = run(capsys, "certify", "--tensor", str(tensor_file), "--witness", str(witness_file))
    assert code == 3 and out == ""
    assert "Traceback" not in err and "needs dim >= 1 and order >= 0" in err


GOOD_TERM = {"coeff": "1", "factors": [["1", "0"], ["1", "0"]]}


@pytest.mark.parametrize("terms, message", [
    ([GOOD_TERM, {"coeff": "1", "factors": [["0", "1"], ["0", "1/x"]]}],
     ".terms[1].factors[1][1]: bad rational '1/x': Invalid literal for Fraction: '1/x'"),
    ([GOOD_TERM, {"coeff": "1", "factors": [["0", "1"], ["0", "1", "2"]]}], ": factor vector has wrong dimension"),
    ([GOOD_TERM, {"coeff": "1", "factors": [["0", "1"], []]}], ".terms[1].factors[1]: expected a nonempty list of rationals"),
    ([GOOD_TERM, {"coeff": "1", "factors": [["0", "1"]]}], ".terms[1]: expected 2 factors"),
    # a bad entry is reported before a malformed term listed after it
    ([{"coeff": "1", "factors": [["1", "0"], ["1", "0/0"]]}, {"coeff": "x", "factors": [["0", "1"]]}],
     ".terms[0].factors[1][1]: bad rational '0/0': Fraction(0, 0)"),
], ids=["bad_entry", "wrong_factor_length", "empty_factor", "missing_factor", "bad_entry_before_bad_term"])
def test_certify_names_the_first_malformed_part_of_a_witness(capsys, tmp_path, terms, message):
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 2, "dim": 2, "entries": ["1", "0", "0", "1"]}))
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps({"dim": 2, "order": 2, "terms": terms}))
    code, out, err = run(capsys, "certify", "--tensor", str(tensor_file), "--witness", str(witness_file))
    assert (code, out, err) == (3, "", f"input error: {witness_file}{message}\n")


def test_rank_bound_over_level_guard_exits_4_at_once(capsys, monkeypatch):
    # the formula costs about k^3: k = m = 100000 did not finish in 100 s
    from sigtensor import ranks

    def no_work(k, m):
        raise AssertionError("rank_bound_formula ran past the guard")

    monkeypatch.setattr(ranks, "rank_bound_formula", no_work)
    code, out, err = run(capsys, "rank-bound", "--k", "100000", "--m", "100000")
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'k <= 8' violated (k=100000); pass --allow-large to override\n"


def test_allow_large_lifts_the_rank_bound_guard(capsys):
    code, out, err = run(capsys, "rank-bound", "--k", "9", "--m", "2", "--allow-large")
    assert code == 0, err
    assert json.loads(out)["result"]["bound"] == 5


def test_out_into_missing_directory_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "bound.json"
    code, out, err = run(capsys, "rank-bound", "--k", "4", "--m", "4", "--out", str(target))
    assert code == 3 and out == ""
    assert "Traceback" not in err and "No such file or directory" in err


@pytest.mark.parametrize("flag", ["--w1", "--w2"])
def test_shuffle_with_bad_word_exits_2(capsys, flag):
    argv = {"--w1": "12", "--w2": "3", flag: "1a"}
    with pytest.raises(SystemExit) as exc:
        main(["shuffle", *[x for pair in argv.items() for x in pair]])
    assert exc.value.code == 2
    assert f"argument {flag}: not a word" in capsys.readouterr().err


def test_one_process_reports_like_a_fresh_parser_per_command(capsys, monkeypatch, axis3):
    # main keeps one parser per process; each report, error and exit code of
    # a run of commands must match a fresh interpreter running that command
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sigtensor

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    commands = [
        ["shuffle", "--w1", "12", "--w2", "3"],
        ["signature", "--path", axis3, "--level", "2"],
        ["shuffle", "--w1", "1a", "--w2", "3"],
        ["rank-bound", "--k", "4", "--m", "4", "--float"],
        ["decompose", "--path", axis3, "--level", "3"],
        ["not-a-command"],
        ["signature", "--path", axis3],
        ["shuffle", "--w1", "12", "--w2", "3"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(sigtensor.__file__).parents[1])}
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "sigtensor", *argv], env=env, capture_output=True, text=True)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_shuffle_of_1200_letter_word_exits_0(capsys):
    # the recursive shuffle hit the recursion limit here
    code, out, err = run(capsys, "shuffle", "--w1", "1" * 1200, "--w2", "2")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert len(result) == 1201 and set(result.values()) == {1}
    assert result["1" * 600 + "2" + "1" * 600] == 1


def test_shuffle_over_guard_exits_4_before_any_work(capsys, monkeypatch):
    # comb(32, 16) = 601080390 interleavings ran until the process was killed
    from sigtensor import words

    def no_work(v, w):
        raise AssertionError("shuffle ran past the guard")

    monkeypatch.setattr(words, "shuffle", no_work)
    code, out, err = run(capsys, "shuffle", "--w1", "1212121212121212", "--w2", "3434343434343434")
    assert code == 4 and out == ""
    assert err == (
        "precondition violated: precondition 'comb(|w1| + |w2|, |w1|) <= 200000' violated "
        "(|w1|=16, |w2|=16); pass --allow-large to override\n"
    )
    start = perf_counter()
    code, _, err = run(capsys, "shuffle", "--w1", "1" * 100_000, "--w2", "2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18")
    assert code == 4 and "(|w1|=100000, |w2|=17)" in err
    assert perf_counter() - start < 0.5


@pytest.mark.parametrize("w2, allow_large, runs", [
    ("3434343434", False, True),  # comb(20, 10) = 184756, inside the guard
    ("34343434343", False, False),  # comb(21, 10) = 352716
    ("34343434343", True, True),
])
def test_shuffle_guard_bound(capsys, monkeypatch, w2, allow_large, runs):
    from sigtensor import WordSum, words

    calls = []
    monkeypatch.setattr(words, "shuffle", lambda v, w: calls.append((v, w)) or WordSum({}))
    argv = ["shuffle", "--w1", "1212121212", "--w2", w2] + ["--allow-large"] * allow_large
    code, _, _ = run(capsys, *argv)
    assert (code, len(calls)) == ((0, 1) if runs else (4, 0))


def test_decompose_over_term_guard_exits_4_at_once(capsys, tmp_path):
    # rank_bound_formula(8, 60) = 150474074 terms ran until the process was killed
    path_file = tmp_path / "long.json"
    path_file.write_text(json.dumps({"dim": 2, "increments": [[str(i % 3 - 1), str(i % 5 - 2)] for i in range(60)]}))
    start = perf_counter()
    code, out, err = run(capsys, "decompose", "--path", str(path_file), "--level", "8")
    assert perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == (
        "precondition violated: precondition 'rank_bound_formula(level, segments) <= 100000' violated "
        "(level=8, segments=60); pass --allow-large to override\n"
    )


@pytest.mark.parametrize("command", ["signature", "exp", "decompose"])
def test_level_over_size_guard_exits_4_at_once(capsys, tmp_path, command):
    # when the entry count was summed before the guard, signature --level 100000 on a
    # 2-dim path ran 15.6 s and exited 4 on a failed integer-to-string conversion
    from sigtensor import log_signature, segment_signature

    if command == "exp":
        source = tmp_path / "l.json"
        source.write_text(dump_json(log_signature_to_json(log_signature(segment_signature([1, 2], 3)))))
        argv = ["exp", "--logsig", str(source)]
    else:
        source = tmp_path / "p.json"
        source.write_text(json.dumps({"dim": 2, "increments": [["1", "0"], ["0", "1"]]}))
        argv = [command, "--path", str(source)]
    start = perf_counter()
    code, out, err = run(capsys, *argv, "--level", "1000000")
    assert perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == (
        "precondition violated: precondition 'dim <= 6 and level <= 8' violated "
        "(dim=2, level=1000000); pass --allow-large to override\n"
    )


@pytest.mark.parametrize("allow_large", [False, True])
def test_allow_large_lifts_the_decompose_term_guard(capsys, monkeypatch, axis3, allow_large):
    from sigtensor import cli

    monkeypatch.setattr(cli, "GUARD_TERMS", 3)  # the axis path at level 4 needs rank_bound_formula(4, 3) = 7
    argv = ["decompose", "--path", axis3, "--level", "4"] + ["--allow-large"] * allow_large
    code, out, err = run(capsys, *argv)
    if allow_large:
        assert code == 0, err
        assert json.loads(out)["result"]["length"] == 7
    else:
        assert code == 4 and "rank_bound_formula(level, segments) <= 3" in err


def test_decompose_over_alpha_guard_exits_4_at_once(capsys, axis3):
    # unguarded, alpha = 1000000 ran for 241 s and then failed to print (level + alpha)!
    start = perf_counter()
    code, out, err = run(capsys, "decompose", "--path", axis3, "--level", "4", "--alpha", "1000000")
    assert perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'alpha <= 8' violated (alpha=1000000); pass --allow-large to override\n"


def test_decompose_alpha_guard_builds_no_decomposition(capsys, axis3, monkeypatch):
    from sigtensor import ranks

    def no_work(vs, k, alpha):
        raise AssertionError("decompose_s_k_alpha ran past the alpha guard")

    monkeypatch.setattr(ranks, "decompose_s_k_alpha", no_work)
    code, out, err = run(capsys, "decompose", "--path", axis3, "--level", "4", "--alpha", "9")
    assert (code, out) == (4, "")
    assert err == "precondition violated: precondition 'alpha <= 8' violated (alpha=9); pass --allow-large to override\n"


def test_allow_large_lifts_the_decompose_alpha_guard(capsys, axis3):
    code, out, err = run(capsys, "decompose", "--path", axis3, "--level", "4", "--alpha", "9", "--allow-large")
    assert code == 0, err
    report = json.loads(out)
    assert report["inputs"]["alpha"] == 9 and report["result"]["length"] == 7


def dim1_zero_files(tmp_path, order):
    """The order-k zero tensor of dimension 1, one entry at any order, and an empty witness of it."""
    tensor_file, witness_file = tmp_path / "t.json", tmp_path / "w.json"
    tensor_file.write_text(json.dumps({"order": order, "dim": 1, "entries": ["0"]}))
    witness_file.write_text(json.dumps({"dim": 1, "order": order, "terms": []}))
    return str(tensor_file), str(witness_file)


def test_certify_over_order_guard_exits_4_at_once(capsys, monkeypatch, tmp_path):
    # unguarded, order 20000 ran out of memory in the flattening scan's O(order^2) part list
    from sigtensor import ranks

    def no_work(tensor, witness):
        raise AssertionError("certify_rank ran past the guard")

    monkeypatch.setattr(ranks, "certify_rank", no_work)
    tensor_file, witness_file = dim1_zero_files(tmp_path, 100_000)
    start = perf_counter()
    code, out, err = run(capsys, "certify", "--tensor", tensor_file, "--witness", witness_file)
    assert perf_counter() - start < 0.5
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'order <= 8' violated (order=100000); pass --allow-large to override\n"


@pytest.mark.parametrize("order, allow_large, runs", [(3, False, True), (4, False, False), (4, True, True)])
def test_certify_order_guard_bound(capsys, monkeypatch, tmp_path, order, allow_large, runs):
    from sigtensor import cli

    monkeypatch.setattr(cli, "GUARD_LEVEL", 3)
    tensor_file, witness_file = dim1_zero_files(tmp_path, order)
    code, out, err = run(capsys, "certify", "--tensor", tensor_file, "--witness", witness_file, *["--allow-large"] * allow_large)
    if runs:
        assert code == 0, err
        assert json.loads(out)["result"] == {"lower": 0, "status": "exact", "upper": 0}
    else:
        assert (code, out) == (4, "")
        assert err == "precondition violated: precondition 'order <= 3' violated (order=4); pass --allow-large to override\n"


def test_certify_takes_the_dim_guard(capsys, tmp_path):
    # unguarded, a witness longer than the flattening ranks reached the three Koszul
    # candidates of d^2 x d C(d, 2) cells: about d^7, 6 s at d=20 with d + 4 terms
    from sigtensor import Decomposition

    rng = random.Random(0)
    witness = Decomposition.of(7, 3, [(1, [[rng.randint(-3, 3) for _ in range(7)] for _ in range(3)]) for _ in range(11)])
    tensor_file, witness_file = tmp_path / "t.json", tmp_path / "w.json"
    tensor_file.write_text(dump_json(tensor_to_json(witness.realize())))
    witness_file.write_text(dump_json(decomposition_to_json(witness)))
    argv = ["certify", "--tensor", str(tensor_file), "--witness", str(witness_file)]
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'dim <= 6' violated (dim=7); pass --allow-large to override\n"
    code, out, err = run(capsys, *argv, "--allow-large")
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == {"lower": 9, "status": "bounded", "upper": 11}


def test_symmetry_over_order_guard_exits_4_at_once(capsys, tmp_path):
    # unguarded, this 47-byte file ran 9 s and printed a witness of two 3000000-letter multi-indices
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text('{"order": 3000000, "dim": 1, "entries": ["1"]}')
    start = perf_counter()
    code, out, err = run(capsys, "symmetry", "--tensor", str(tensor_file))
    assert perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'order <= 8' violated (order=3000000); pass --allow-large to override\n"


def test_allow_large_lifts_the_symmetry_order_guard(capsys, monkeypatch, tmp_path):
    from sigtensor import cli

    monkeypatch.setattr(cli, "GUARD_LEVEL", 3)
    tensor_file, _ = dim1_zero_files(tmp_path, 4)
    code, out, err = run(capsys, "symmetry", "--tensor", tensor_file, "--allow-large")
    assert code == 0, err
    assert json.loads(out)["result"]["is_symmetric"] is True


def dim1_zero_signature(tmp_path, max_level):
    sig_file = tmp_path / "sig.json"
    levels = [{"dim": 1, "entries": ["1" if k == 0 else "0"], "order": k} for k in range(max_level + 1)]
    sig_file.write_text(json.dumps({"dim": 1, "levels": levels, "max_level": max_level}))
    return str(sig_file)


def test_concise_over_level_guard_exits_4_at_once(capsys, monkeypatch, tmp_path):
    # unguarded, concise on a dim-1 signature took 8.6 s at max_level 2000 and grew quadratically
    from sigtensor import conciseness

    def no_work(t):
        raise AssertionError("live_echelons ran past the guard")

    monkeypatch.setattr(conciseness, "live_echelons", no_work)
    sig_file = dim1_zero_signature(tmp_path, 2000)
    start = perf_counter()
    code, out, err = run(capsys, "concise", "--sig", sig_file)
    assert perf_counter() - start < 0.5
    assert code == 4 and out == ""
    assert err == "precondition violated: precondition 'dim <= 6 and level <= 8' violated (dim=1, level=2000); pass --allow-large to override\n"
    # the level range is checked first
    code, _, err = run(capsys, "concise", "--sig", sig_file, "--level", "2001")
    assert code == 4 and "'2 <= level <= 2000' violated (level=2001)" in err


@pytest.mark.parametrize("level, allow_large, runs", [(3, False, True), (4, False, False), (4, True, True)])
def test_concise_level_guard_bound(capsys, monkeypatch, tmp_path, level, allow_large, runs):
    from sigtensor import cli

    monkeypatch.setattr(cli, "GUARD_LEVEL", 3)
    sig_file = dim1_zero_signature(tmp_path, 5)
    code, out, err = run(capsys, "concise", "--sig", sig_file, "--level", str(level), *["--allow-large"] * allow_large)
    if runs:
        assert code == 0, err
        assert json.loads(out)["inputs"]["level"] == level
    else:
        assert (code, out) == (4, "")
        assert err == "precondition violated: precondition 'dim <= 6 and level <= 3' violated (dim=1, level=4); pass --allow-large to override\n"


def test_concise_takes_the_dim_guard(capsys, tmp_path):
    from sigtensor import segment_signature

    sig_file = tmp_path / "seg7.json"
    sig_file.write_text(dump_json(signature_to_json(segment_signature([1, 0, 0, 0, 0, 0, 2], 2))))
    code, out, err = run(capsys, "concise", "--sig", str(sig_file))
    assert code == 4 and out == ""
    assert "(dim=7, level=2); pass --allow-large to override" in err
    code, out, err = run(capsys, "concise", "--sig", str(sig_file), "--allow-large")
    assert code == 0, err
    assert json.loads(out)["result"]["recovered_subspace"]["dim"] == 1


@pytest.mark.parametrize("allow_large", [False, True])
def test_pure_volume_takes_the_dim_guard(capsys, tmp_path, allow_large):
    from sigtensor import segment_signature

    sig_file = tmp_path / "seg7.json"
    sig_file.write_text(dump_json(signature_to_json(segment_signature([1, 0, 0, 0, 0, 0, 2], 3))))
    argv = ["pure-volume", "--sig", str(sig_file), "--n", "1", "--k0", "2"] + ["--allow-large"] * allow_large
    code, out, err = run(capsys, *argv)
    if allow_large:
        # a segment is a pure 1-volume
        assert code == 0, err
        assert json.loads(out)["result"]["pure_volume"] is True
    else:
        assert code == 4 and out == ""
        assert "(dim=7, level=3); pass --allow-large to override" in err


def test_symmetry_on_an_entry_with_a_huge_exponent_exits_3_at_once(capsys, tmp_path):
    # "1e9999999" is Fraction syntax for 10**9999999: built, it took 5.4 s and 35 MB
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 2, "dim": 2, "entries": ["1", "1/2", "1e9999999", "3"]}))
    start = perf_counter()
    code, out, err = run(capsys, "symmetry", "--tensor", str(tensor_file))
    assert perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "entries[2]: bad rational '1e9999999': exponent above 4300 in magnitude" in err
    assert "Traceback" not in err


def test_sig222_param_with_a_huge_exponent_exits_3(capsys):
    code, out, err = run(capsys, "sig222", "--params", "1,2,3,4,1e999999")
    assert code == 3 and out == ""
    assert "--params[4]: bad rational '1e999999': exponent above 4300 in magnitude" in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b"[" + b"1" * 5000 + b"]", b'{"dim": 2, "\xff": 1}'],
    ids=["nested_too_deep", "int_past_digit_limit", "bad_utf8"],
)
def test_json_that_cannot_be_decoded_exits_3(capsys, tmp_path, content):
    sig_file = tmp_path / "sig.json"
    sig_file.write_bytes(content)
    code, out, err = run(capsys, "log", "--sig", str(sig_file))
    assert code == 3 and out == ""
    assert f"input error: {sig_file}: cannot decode JSON: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"1,2\n3," + b"4" * 200_000 + b"\n", b"1,2\n3,\xff\n"],
    ids=["cell_past_field_limit", "bad_utf8"],
)
def test_csv_that_cannot_be_decoded_exits_3(capsys, tmp_path, content):
    csv_file = tmp_path / "series.csv"
    csv_file.write_bytes(content)
    code, out, err = run(capsys, "signature", "--series", str(csv_file), "--level", "2")
    assert code == 3 and out == ""
    assert err.startswith(f"input error: {csv_file}: ")
    assert "Traceback" not in err


def test_float_column_is_null_outside_the_double_range(capsys):
    code, out, err = run(capsys, "sig222", "--params", "1e300,1,1,1,1", "--float")
    assert code == 0, err
    result = json.loads(out)["result"]
    tensor = result["tensor"]
    # entry (1,1,1) is x^3/6 = 10^900/6; the exact string stays next to the null
    assert tensor["entries"][0] == str(Fraction(10**900, 6))
    for exact, lossy in zip(tensor["entries"], tensor["entries_float_lossy"]):
        assert (lossy is None) == (abs(Fraction(exact)) > sys.float_info.max)
    assert result["hyperdeterminant_float_lossy"] is None


@pytest.mark.parametrize("increments, expected", [
    # level 4 of a path and its way back is zero; read on the axis path e1, e2 it would show 3/3 "exact"
    ([["1"], ["-1"]], (0, 3, "bounded")),
    # a backtracking pair inside: on the axis path e1..e4 it would show 10/13
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "-1", "0"], ["0", "0", "1"]], (3, 13, "bounded")),
])
def test_decompose_of_dependent_increments_reads_no_axis_path(capsys, tmp_path, increments, expected):
    # dependent increments: the axis path's bound is no bound for the path's own tensor
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({"dim": len(increments[0]), "increments": increments}))
    code, out, err = run(capsys, "decompose", "--path", str(path_file), "--level", "4")
    assert code == 0, err
    rank = json.loads(out)["certificates"]["rank"]
    assert (rank["lower"], rank["upper"], rank["status"]) == expected


# levels with an entry outside the plain "p"/"p/q" form are read through
# tensor_from_json; the reports are pinned as they were before the plain route
@pytest.mark.parametrize("entries, result", [
    # a JSON int: e1 (x) e1 + 2 (e1 (x) e2 + e2 (x) e1) + 5 e2 (x) e2 is symmetric, and skew fails at (1, 2)
    ([1, "2", 2, "5"], {"is_skew": False, "is_symmetric": True, "partial": ["first_k_minus_1", "last_k_minus_1"], "witness": [[1, 2], [2, 1]]}),
    # "1e3" is 1000 at (1, 1, 1); (1, 1, 2) = 1 against (1, 2, 1) = 2 breaks position 1, so only the first block holds
    (["1e3", "1", "2", "0", "2", "0", "0", "0"], {"is_skew": False, "is_symmetric": False, "partial": ["first_k_minus_1"], "witness": [[1, 1, 2], [1, 2, 1]]}),
    # " 3" is 3: the area form 3 (e1 (x) e2 - e2 (x) e1) is skew; at order 2 both blocks are empty, so both hold
    (["0", " 3", "-3", "0"], {"is_skew": True, "is_symmetric": False, "partial": ["first_k_minus_1", "last_k_minus_1"], "witness": [[1, 2], [2, 1]]}),
], ids=["json-int", "exponent", "space"])
def test_symmetry_on_a_level_outside_the_plain_form_prints_the_same_bytes(capsys, tmp_path, entries, result):
    tensor_file = tmp_path / "t.json"
    k = {4: 2, 8: 3}[len(entries)]
    tensor_file.write_text(json.dumps({"order": k, "dim": 2, "entries": entries}))
    code, out, err = run(capsys, "symmetry", "--tensor", str(tensor_file))
    assert (code, err) == (0, "")
    assert out == json.dumps({"command": "symmetry", "inputs": {"tensor": str(tensor_file)}, "result": result}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("entries, bad", [
    (["1", "2", "1/0", "3"], "entries[2]: bad rational '1/0'"),
    (["1/2", "1/2", "1/2", "1//2"], "entries[3]: bad rational '1//2'"),
    (["1", "2", "3", "1/2/3"], "entries[3]: bad rational '1/2/3'"),
    (["0", "x", "0", "0"], "entries[1]: bad rational 'x'"),
])
def test_symmetry_on_a_bad_entry_exits_3_naming_it(capsys, tmp_path, entries, bad):
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"order": 2, "dim": 2, "entries": entries}))
    code, out, err = run(capsys, "symmetry", "--tensor", str(tensor_file))
    assert (code, out) == (3, "")
    assert err.startswith(f"input error: {tensor_file}.{bad}: ")


def generic_signature_json(max_level):
    """The signature of a generic path in Q^3: its levels 3 and up are plain
    strings, mostly distinct, which concise reads as strings."""
    from sigtensor import Path, pwl_signature

    return signature_to_json(pwl_signature(Path.from_increments([[1, -2, 3], [-3, 1, 0], [2, 2, -1]]), max_level))


@pytest.mark.parametrize("offset, entry", [
    (19, -6),  # a JSON int, an exponent or a space is not plain: the level is parsed whole
    (19, "-60e-1"),
    (19, " -6"),
    (0, "-0"),  # plain spellings of the same values keep the string route
    (0, "0/7"),
    (5, "-34/24"),
], ids=["json-int", "exponent", "space", "minus-zero", "zero-over-7", "doubled"])
def test_concise_on_a_level_outside_the_plain_form_prints_the_same_bytes(capsys, tmp_path, offset, entry):
    # level 4 of the generic path holds 0 at (1, 1, 1, 1), -17/12 at (1, 1, 2, 3) and -6 at (1, 1, 3, 2)
    sig, sig_file = generic_signature_json(4), tmp_path / "sig.json"
    assert sig["levels"][4]["entries"][offset] == str(Fraction(entry))
    sig_file.write_text(json.dumps(sig))
    code, canonical, err = run(capsys, "concise", "--sig", str(sig_file))
    assert (code, err) == (0, "")
    sig["levels"][4]["entries"][offset] = entry
    sig_file.write_text(json.dumps(sig))
    assert run(capsys, "concise", "--sig", str(sig_file)) == (0, canonical, "")


def test_concise_names_a_malformed_entry_that_no_fiber_reads(capsys, tmp_path):
    # (3, 3, 3, 3) is in no mode's first fibers, whose other letters are all 1
    # but the last, and the generic level needs no unfolding: the plain check
    # of the whole level still finds it
    sig, sig_file = generic_signature_json(4), tmp_path / "sig.json"
    sig["levels"][4]["entries"][80] = "1//2"
    sig_file.write_text(json.dumps(sig))
    code, out, err = run(capsys, "concise", "--sig", str(sig_file))
    assert (code, out) == (3, "")
    assert err == f"input error: {sig_file}.levels[4].entries[80]: bad rational '1//2': Invalid literal for Fraction: '1//2'\n"


def test_concise_reports_input_errors_in_the_order_of_the_parsed_route(capsys, tmp_path):
    # entries are checked level by level, every level up to max_level, and the
    # shape of each level against its place only after all are read
    sig, sig_file = generic_signature_json(5), tmp_path / "sig.json"
    sig["levels"][2] = {"order": 2, "dim": 2, "entries": ["1", "2", "3", "4"]}
    sig_file.write_text(json.dumps(sig))
    code, out, err = run(capsys, "concise", "--sig", str(sig_file))
    assert (code, out, err) == (3, "", f"input error: {sig_file}: level 2 has wrong shape\n")
    sig["levels"][4]["entries"][80] = "1//2"
    sig["levels"][5]["entries"][7] = "x"
    sig_file.write_text(json.dumps(sig))
    bad_entry = f"input error: {sig_file}.levels[4].entries[80]: bad rational '1//2': Invalid literal for Fraction: '1//2'\n"
    assert run(capsys, "concise", "--sig", str(sig_file)) == (3, "", bad_entry)
    assert run(capsys, "concise", "--sig", str(sig_file), "--level", "2") == (3, "", bad_entry)
    sig["levels"][4]["entries"][80] = "1/2"
    sig["levels"][2] = generic_signature_json(2)["levels"][2]
    sig_file.write_text(json.dumps(sig))
    code, out, err = run(capsys, "concise", "--sig", str(sig_file), "--level", "3")
    assert (code, out, err) == (3, "", f"input error: {sig_file}.levels[5].entries[7]: bad rational 'x': Invalid literal for Fraction: 'x'\n")


def test_certify_counts_no_witness_term_with_a_zero_factor(capsys, tmp_path):
    # e1 (x) e1 + 5 (0 (x) (1, 1)) realizes e1 (x) e1, a rank-one tensor: one term counts
    tensor_file, witness_file = tmp_path / "t.json", tmp_path / "w.json"
    tensor_file.write_text(json.dumps({"order": 2, "dim": 2, "entries": ["1", "0", "0", "0"]}))
    witness_file.write_text(json.dumps({"dim": 2, "order": 2, "terms": [
        {"coeff": "1", "factors": [["1", "0"], ["1", "0"]]},
        {"coeff": "5", "factors": [["0", "0"], ["1", "1"]]},
    ]}))
    code, out, err = run(capsys, "certify", "--tensor", str(tensor_file), "--witness", str(witness_file))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"lower": 1, "upper": 1, "status": "exact"}
