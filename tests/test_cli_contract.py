"""The CLI's exit-code contract on malformed JSON inputs and integer flags.

Pins the exit-3 line for an input that is not a JSON object or misses a
required key, for each object the CLI reads, and fuzzes the commands that
read JSON files with mutated fixtures: every run exits 0, 2, 3 or 4 and
raises nothing out of main, so no traceback reaches stderr. The integer
flags are mutated the same way (negative, zero, huge, not an integer, or
left out); there exit 1 is allowed too, for a command whose check failed.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sigtensor import Path, decompose_s_k_alpha, log_signature, pwl_signature
from sigtensor.cli import _COMMANDS, main
from sigtensor.serialize import decomposition_to_json, log_signature_to_json, signature_to_json, tensor_to_json


def _fixtures():
    """The JSON inputs of the commands below, by file name."""
    increments = [["1", "-1/2"], ["2", "3"], ["-1", "1/3"]]
    path = Path.from_increments(increments)
    sig = pwl_signature(path, 3)
    return {
        "path.json": {"dim": 2, "increments": increments},
        "sig.json": signature_to_json(sig),
        "logsig.json": log_signature_to_json(log_signature(sig)),
        "tensor.json": tensor_to_json(sig.level(3)),
        "witness.json": decomposition_to_json(decompose_s_k_alpha(path.increments, 3, 0)),
    }


FIXTURES = _fixtures()

# each command reading JSON, with {name} for the fixture files it reads
COMMANDS = [
    ("signature", "--path", "{path.json}", "--level", "3"),
    ("log", "--sig", "{sig.json}"),
    ("exp", "--logsig", "{logsig.json}"),
    ("decompose", "--path", "{path.json}", "--level", "3"),
    ("certify", "--tensor", "{tensor.json}", "--witness", "{witness.json}"),
    ("concise", "--sig", "{sig.json}"),
    ("symmetry", "--tensor", "{tensor.json}"),
    ("classify222", "--tensor", "{tensor.json}"),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _argv(command, root, mutated=None):
    """The command's argv over fixture files in root; mutated names one file
    written with other content."""
    files = {}
    for name, obj in FIXTURES.items():
        content = mutated[1] if mutated and mutated[0] == name else obj
        target = root / ("mutated-" + name if mutated and mutated[0] == name else name)
        target.write_text(json.dumps(content))
        files[name] = str(target)
    return [files[a[1:-1]] if a.startswith("{") else a for a in command]


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_fixtures_run_cleanly(tmp_path, command):
    code, out, err = _run(_argv(command, tmp_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["command"] == command[0]


# -- the exit-3 line of each object reader ----------------------------------------

# (fixture file, a command reading it, the object's keys in the order they are required)
READERS = [
    ("tensor.json", ("symmetry", "--tensor", "{tensor.json}"), ("order", "dim", "entries")),
    ("path.json", ("signature", "--path", "{path.json}", "--level", "3"), ("dim", "increments")),
    ("sig.json", ("log", "--sig", "{sig.json}"), ("dim", "max_level", "levels")),
    ("logsig.json", ("exp", "--logsig", "{logsig.json}"), ("dim", "max_level", "levels")),
    ("witness.json", COMMANDS[4], ("dim", "order", "terms")),
]


@pytest.mark.parametrize("name, command, keys", READERS, ids=[r[0] for r in READERS])
@pytest.mark.parametrize("content", [[], "x", 3, None])
def test_non_object_exits_3(tmp_path, name, command, keys, content):
    argv = _argv(command, tmp_path, (name, content))
    code, out, err = _run(argv)
    where = str(tmp_path / ("mutated-" + name))
    assert (code, out, err) == (3, "", f"input error: {where}: expected an object\n")


@pytest.mark.parametrize("name, command, keys", READERS, ids=[r[0] for r in READERS])
def test_missing_key_exits_3_naming_the_first_missing_key(tmp_path, name, command, keys):
    where = str(tmp_path / ("mutated-" + name))
    for i, key in enumerate(keys):
        for dropped in ({key}, set(keys[i:])):
            obj = {k: v for k, v in FIXTURES[name].items() if k not in dropped}
            code, out, err = _run(_argv(command, tmp_path, (name, obj)))
            assert (code, out, err) == (3, "", f"input error: {where}: missing key {key!r}\n")


def _witness_with_first_term(term):
    witness = copy.deepcopy(FIXTURES["witness.json"])
    witness["terms"][0] = term
    return witness


@pytest.mark.parametrize("term, message", [
    ([], "expected an object"),
    ("term", "expected an object"),
    ({"factors": [["1", "0"]] * 3}, "missing key 'coeff'"),
    ({"coeff": "1"}, "missing key 'factors'"),
    ({}, "missing key 'coeff'"),
])
def test_decomposition_term_exits_3(tmp_path, term, message):
    code, out, err = _run(_argv(COMMANDS[4], tmp_path, ("witness.json", _witness_with_first_term(term))))
    where = str(tmp_path / "mutated-witness.json") + ".terms[0]"
    assert (code, out, err) == (3, "", f"input error: {where}: {message}\n")


def test_a_term_coeff_is_parsed_before_its_factors_are_looked_up(tmp_path):
    argv = _argv(COMMANDS[4], tmp_path, ("witness.json", _witness_with_first_term({"coeff": "1/0"})))
    code, out, err = _run(argv)
    where = str(tmp_path / "mutated-witness.json") + ".terms[0].coeff"
    assert (code, out) == (3, "")
    assert err.startswith(f"input error: {where}: bad rational '1/0'")


# -- fuzzing --------------------------------------------------------------------

# JSON values of every type, and rationals that do not parse or are out of range
REPLACEMENTS = [None, True, False, 0, -1, 7, 1.5, "", "x", "1/0", "1.5.2", "1e9999999", "-0/3", [], [[]], {}, {"a": 1}]


def _nodes(obj, at=()):
    """The location of every value in a JSON document, the root first."""
    yield at
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _nodes(value, at + (key,))


def _get(obj, at):
    for key in at:
        obj = obj[key]
    return obj


@st.composite
def mutations(draw):
    """A command and one of its input files, mutated once: a value replaced
    by one of another JSON type or a bad rational, a key dropped, or a list
    item dropped or appended."""
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from([a[1:-1] for a in command if a.startswith("{")]))
    doc = copy.deepcopy(FIXTURES[name])
    at = draw(st.sampled_from(list(_nodes(doc))))
    node = _get(doc, at)
    kinds = ["replace"]
    if isinstance(node, (dict, list)) and node:
        kinds.append("drop")
    if isinstance(node, list):
        kinds.append("append")
    kind = draw(st.sampled_from(kinds))
    if kind == "replace":
        value = draw(st.sampled_from(REPLACEMENTS))
        if not at:
            return command, name, value
        _get(doc, at[:-1])[at[-1]] = value
    elif kind == "drop":
        del node[draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))]
    else:
        node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else draw(st.sampled_from(REPLACEMENTS)))
    return command, name, doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations())
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, mutation):
    command, name, doc = mutation
    code, out, err = _run(_argv(command, tmp_path, (name, doc)))
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    assert (out == "") == (code != 0)


# -- argv mutation: the integer flags ------------------------------------------------

# each command with an integer flag, every such flag set to a value that runs
INT_FLAG_COMMANDS = [
    ("signature", "--path", "{path.json}", "--level", "3"),
    ("exp", "--logsig", "{logsig.json}", "--level", "2"),
    ("decompose", "--path", "{path.json}", "--level", "3", "--alpha", "1"),
    ("rank-bound", "--k", "5", "--m", "4"),
    ("concise", "--sig", "{sig.json}", "--level", "2"),
    ("pure-volume", "--sig", "{sig.json}", "--n", "1", "--k0", "2"),
    ("verify", "--seed", "0", "--size", "1"),
]
INT_FLAGS = {"--level", "--alpha", "--k", "--m", "--n", "--k0", "--size", "--seed"}
# negative, zero, huge, not an integer; None leaves the flag out
FLAG_VALUES = ["-1", "0", "1" + "0" * 30, "2.5", "x", None]


def _with_flags(command, values):
    """The command with each flag in values set to its value, or left out for None."""
    argv, i = [command[0]], 1
    while i < len(command):
        flag, value = command[i], command[i + 1]
        value = values.get(flag, value)
        if value is not None:
            argv += [flag, value]
        i += 2
    return tuple(argv)


def check_exit_contract(tmp_path, argv):
    code, out, err = _run(_argv(argv, tmp_path))
    verdict = _COMMANDS[argv[0]].verdict is not None
    assert code in (0, 2, 3, 4) or (code == 1 and verdict), (argv, code, err)
    assert "Traceback" not in err
    assert (out == "") == (code not in (0, 1)), (argv, code, err)


def test_int_flag_commands_run_cleanly_as_given(tmp_path):
    assert {a for c in INT_FLAG_COMMANDS for a in c if a.startswith("--")} >= INT_FLAGS
    for command in INT_FLAG_COMMANDS:
        code, out, err = _run(_argv(command, tmp_path))
        assert code in (0, 1) and err == "", (command, code, err)


@pytest.mark.parametrize("command, flag", [(c, a) for c in INT_FLAG_COMMANDS for a in c if a in INT_FLAGS], ids=lambda x: x if isinstance(x, str) else x[0])
@pytest.mark.parametrize("value", FLAG_VALUES, ids=["negative", "zero", "huge", "fraction", "word", "left-out"])
def test_each_integer_flag_keeps_the_exit_code_contract(tmp_path, command, flag, value):
    check_exit_contract(tmp_path, _with_flags(command, {flag: value}))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(INT_FLAG_COMMANDS).flatmap(
    lambda c: st.tuples(st.just(c), st.fixed_dictionaries({a: st.sampled_from(FLAG_VALUES + [v]) for a, v in zip(c, c[1:]) if a in INT_FLAGS}))))
def test_integer_flags_mutated_together_keep_the_exit_code_contract(tmp_path, case):
    command, values = case
    check_exit_contract(tmp_path, _with_flags(command, values))
