import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import sigtensor
from sigtensor import (
    Path,
    Tensor,
    decompose_three_segments,
    log_signature,
    pwl_signature,
    segment_signature,
    serialize,
)
from sigtensor.serialize import (
    ParseError,
    decomposition_from_json,
    decomposition_to_json,
    dump_json,
    log_signature_from_json,
    log_signature_to_json,
    parse_rational,
    parse_time_series_csv,
    path_from_json,
    path_to_json,
    signature_from_json,
    signature_to_json,
    tensor_from_json,
    tensor_to_json,
)


def test_rational_strings():
    assert parse_rational("3") == 3
    assert parse_rational("-7/3") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("abc")


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_rejects_json_bool(value):
    with pytest.raises(ParseError):
        parse_rational(value)


@pytest.mark.parametrize("key", ["order", "dim"])
def test_tensor_from_json_rejects_bool_order_and_dim(key):
    blob = {"order": 1, "dim": 1, "entries": ["1"]}
    blob[key] = True
    with pytest.raises(ParseError, match="must be integers"):
        tensor_from_json(blob)


def test_path_from_json_rejects_bool_dim():
    with pytest.raises(ParseError):
        path_from_json({"dim": True, "increments": [["1"]]})


@pytest.mark.parametrize("parse, first", [(signature_from_json, 0), (log_signature_from_json, 1)])
@pytest.mark.parametrize("key, value", [("max_level", "2"), ("max_level", True), ("dim", "2"), ("dim", False)])
def test_signature_parsers_reject_non_int_dim_and_max_level(parse, first, key, value):
    blob = {"dim": 1, "max_level": 2, "levels": [{"order": k, "dim": 1, "entries": ["0"]} for k in range(first, 3)]}
    blob[key] = value
    with pytest.raises(ParseError, match="must be integers"):
        parse(blob)


def test_tensor_round_trip():
    t = Tensor.from_entries(3, 2, [Fraction(i, 7) for i in range(8)])
    assert tensor_from_json(json.loads(dump_json(tensor_to_json(t)))) == t


def test_tensor_entry_count_checked():
    with pytest.raises(ParseError, match="entries"):
        tensor_from_json({"order": 2, "dim": 2, "entries": ["1", "2", "3"]})


def test_tensor_from_json_rejects_huge_order_before_exponentiating():
    # 2**order would not finish; no entry list can match such an order
    start = perf_counter()
    with pytest.raises(ParseError, match="entries"):
        tensor_from_json({"order": 100_000_000_000, "dim": 2, "entries": []})
    with pytest.raises(ParseError, match="entries"):
        tensor_from_json({"order": 10**30, "dim": 3, "entries": ["0"] * 9})
    assert perf_counter() - start < 0.5


def test_tensor_from_json_order_guard_keeps_valid_and_dim_one_tensors():
    assert tensor_from_json({"order": 4, "dim": 2, "entries": ["1"] * 16}).order == 4
    assert tensor_from_json({"order": 10**12, "dim": 1, "entries": ["3"]}).entries == (3,)


def test_tensor_bad_entry_positions():
    with pytest.raises(ParseError, match=r"entries\[2\]"):
        tensor_from_json({"order": 1, "dim": 3, "entries": ["1", "2", "x"]})


def test_path_round_trip():
    p = Path.from_increments([[1, 0], [Fraction(1, 2), -2]], dim=2)
    assert path_from_json(path_to_json(p)) == p


def test_path_requires_consistent_dims():
    with pytest.raises(ParseError):
        path_from_json({"dim": 2, "increments": [["1", "0"], ["1"]]})


def test_signature_round_trip():
    sig = pwl_signature(Path.from_increments([[1, 0], [1, 1]], dim=2), 3)
    assert signature_from_json(signature_to_json(sig)) == sig


def test_log_signature_round_trip():
    l = log_signature(segment_signature([1, -1, 2], 3))
    assert log_signature_from_json(log_signature_to_json(l)) == l


def test_log_signature_rejects_non_lie_levels():
    blob = {
        "dim": 2,
        "max_level": 2,
        "levels": [
            {"order": 1, "dim": 2, "entries": ["1", "0"]},
            {"order": 2, "dim": 2, "entries": ["1", "0", "0", "0"]},
        ],
    }
    with pytest.raises(ParseError, match="Lie"):
        log_signature_from_json(blob)


def test_decomposition_round_trip():
    dec = decompose_three_segments([1, 0, 0], [0, 1, 0], [0, 0, 1], 4)
    assert decomposition_from_json(decomposition_to_json(dec)) == dec


def test_csv_parsing():
    text = "t1,t2\n0,0\n1,0\n1,1/2\n"
    samples = parse_time_series_csv(text, has_header=True)
    assert samples == [(0, 0), (1, 0), (1, Fraction(1, 2))]


def test_csv_position_in_errors():
    with pytest.raises(ParseError, match="row 2, column 1"):
        parse_time_series_csv("1,2\nx,3\n")


def test_csv_error_message_counts_rows_after_the_header():
    # the blank line counts as a row; the header does not
    with pytest.raises(ParseError) as exc:
        parse_time_series_csv("t,x,y\n1,2,3\n\n4,x,5\n", has_header=True, where="s.csv")
    assert str(exc.value) == "s.csv:row 3, column 2: bad rational 'x': Invalid literal for Fraction: 'x'"
    assert exc.value.where == "s.csv:row 3, column 2"


def test_csv_ragged_rows():
    with pytest.raises(ParseError, match="inconsistent"):
        parse_time_series_csv("1,2\n3\n")


def test_dump_json_deterministic():
    blob = {"b": 1, "a": [{"z": "1/2", "y": 3}]}
    assert dump_json(blob) == dump_json(json.loads(dump_json(blob)))


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# strings with quotes, backslashes, control and non-ASCII characters
json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028😀'), st.characters()), max_size=6)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    json_text,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(json_text, max_size=4), st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dump_json_writes_the_bytes_of_json_dumps(obj):
    assert dump_json(obj) == json_dumps(obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["signature", "--level", "3", "--float"],
        ["sig222", "--params", "1e300,1,1,1,1", "--float"],
        ["decompose", "--level", "3", "--float"],
    ],
    ids=lambda argv: argv[0],
)
def test_float_reports_are_the_bytes_of_json_dumps(tmp_path, capsys, argv):
    # the report read back holds the same values, floats included, since
    # float repr round-trips
    from sigtensor.cli import main

    path = tmp_path / "path.json"
    path.write_text(json.dumps({"dim": 3, "increments": [["1/2", "-1", "0"], ["2", "1/3", "-3/4"], ["0", "5", "7/6"]]}))
    if argv[0] in ("signature", "decompose"):
        argv = [argv[0], "--path", str(path), *argv[1:]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "_float_lossy" in out
    assert out == json_dumps(json.loads(out))


# the fast path of parse_rational handles "-?[0-9]+(/[0-9]+)?"; the rest goes
# to Fraction(text), so both must agree on every string
RATIONAL_LIKE = st.text(alphabet="0123456789-+/ _.e٣１", max_size=8)


def fraction_or_message(text, where="where"):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{where}: bad rational {text!r}: {exc}"
    # Fraction took the text, so what follows its "e" is the exponent
    exponent = text.replace("E", "e").partition("e")[2]
    if exponent and abs(int(exponent)) > 4300:
        return f"{where}: bad rational {text!r}: exponent above 4300 in magnitude"
    return value


def check_parse_rational_agrees_with_fraction(text):
    expected = fraction_or_message(text)
    if isinstance(expected, Fraction):
        got = parse_rational(text, "where")
        assert got == expected and type(got) is Fraction
    else:
        with pytest.raises(ParseError) as exc:
            parse_rational(text, "where")
        assert str(exc.value) == expected


@pytest.mark.parametrize("text", [
    "--3", "+3", " 3", "3 ", "1/-2", "1/0", "-0/0", "3_0", "٣", "007/014", "-12/4", "1/2/3", "",
    # exponents up to 4300 in magnitude are read, larger ones refused; malformed
    # text with a huge exponent keeps Fraction's message
    "1e3", "-2.5E-2", "1e-300", " 1.5e4300 ", "1e-4300", "1e0_4_3_0_0", "1e4301", "-2.5E-4301",
    "x1e9999999", "1e9999999x", "1/2e9999999", "1e+-9999999", "1e9999999_", "1e99__99999",
])
def test_parse_rational_agrees_with_fraction_on_edge_strings(text):
    check_parse_rational_agrees_with_fraction(text)


@pytest.mark.parametrize("text", ["1e9999999", " .5e+9999999 ", "-2.5E-9999999"])
def test_parse_rational_refuses_exponents_above_4300_before_building_them(text):
    start = perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_rational(text, "where")
    assert perf_counter() - start < 0.1
    assert str(exc.value) == f"where: bad rational {text!r}: exponent above 4300 in magnitude"


def test_parse_rational_refuses_an_exponent_of_5000_digits_at_once():
    # past 4300 digits int() itself refuses the exponent, as Fraction(text) does
    start = perf_counter()
    with pytest.raises(ParseError):
        parse_rational("3e" + "9" * 5000)
    assert perf_counter() - start < 0.1


@settings(max_examples=300, deadline=None)
@given(st.one_of(RATIONAL_LIKE, st.text(max_size=6)))
def test_parse_rational_agrees_with_fraction(text):
    check_parse_rational_agrees_with_fraction(text)


_SIG = {"dim": 2, "max_level": 2, "levels": [
    {"order": 0, "dim": 2, "entries": ["1"]},
    {"order": 1, "dim": 2, "entries": ["1", "3"]},
    {"order": 2, "dim": 2, "entries": ["1/2", "3", "0", "9/2"]},
]}
_PATH = {"dim": 2, "increments": [["1", "2"], ["0", "1"]]}
_DEC = {"dim": 2, "order": 2, "terms": [{"coeff": "1", "factors": [["1", "0"], ["1", "2"]]}]}


def _set(blob, keys, value):
    blob = json.loads(json.dumps(blob))
    target = blob
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return blob


@pytest.mark.parametrize("parse, blob, message", [
    (signature_from_json, _set(_SIG, ["levels", 2, "entries", 0], "x"),
     "signature.levels[2].entries[0]: bad rational 'x': Invalid literal for Fraction: 'x'"),
    (signature_from_json, _set(_SIG, ["levels", 2, "entries", 0], 0.5),
     "signature.levels[2].entries[0]: expected a rational string, got float"),
    (signature_from_json, _set(_SIG, ["levels", 2, "entries", 0], True),
     "signature.levels[2].entries[0]: expected a rational string, got bool"),
    (signature_from_json, _set(_set(_SIG, ["levels", 2, "entries", 1], "1/0"), ["levels", 2, "entries", 3], "x"),
     "signature.levels[2].entries[1]: bad rational '1/0': Fraction(1, 0)"),
    (log_signature_from_json, _set(_SIG, ["levels"], _SIG["levels"][1:2] + [_set(_SIG["levels"][2], ["entries", 3], "1/0")]),
     "log-signature.levels[2].entries[3]: bad rational '1/0': Fraction(1, 0)"),
    (path_from_json, _set(_PATH, ["increments", 1, 1], "y"),
     "path.increments[1][1]: bad rational 'y': Invalid literal for Fraction: 'y'"),
    (decomposition_from_json, _set(_DEC, ["terms", 0, "factors", 0, 1], False),
     "decomposition.terms[0].factors[0][1]: expected a rational string, got bool"),
    (decomposition_from_json, _set(_DEC, ["terms", 0, "coeff"], "1/0"),
     "decomposition.terms[0].coeff: bad rational '1/0': Fraction(1, 0)"),
    (signature_from_json, _set(_SIG, ["levels"], _SIG["levels"][:2]),
     "signature: levels must list tensors for 0..max_level"),
    (log_signature_from_json, _SIG,
     "log-signature: levels must list tensors for 1..max_level"),
])
def test_parse_errors_name_the_first_bad_nested_entry(parse, blob, message):
    with pytest.raises(ParseError) as exc:
        parse(blob)
    assert str(exc.value) == message


# tensor levels parse plain "p"/"p/q" strings straight to integer numerators
# over one denominator, and anything else through parse_rational: both must
# give the Tensor that Fraction gives, with the same canonical nums and den

def _plain_rational(sign, num, zeros, den):
    text = sign + "0" * zeros + str(num)
    return text if den is None else f"{text}/{'0' * zeros}{den}"


PLAIN_ENTRY = st.builds(
    _plain_rational,
    st.sampled_from(["", "-"]),
    st.integers(0, 10**6),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(1, 10**4)),
)
LEVEL_ENTRY = st.one_of(
    PLAIN_ENTRY,
    st.sampled_from(["-0", "0/7", "2/4", "007/010", "-0/3"]),
    st.integers(10**200, 10**210).map(lambda n: str(n) + "/3"),
    st.integers(-(10**210), 10**210).map(str),
    st.integers(-50, 50),  # a JSON int
    st.sampled_from([" 3", "+3", "1e3", "3_0", "٣", "1.5", "-2/4 "]),  # Fraction syntax only
)


@st.composite
def level_json(draw, entry=LEVEL_ENTRY):
    order, dim = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    entries = draw(st.lists(entry, min_size=dim**order, max_size=dim**order))
    return {"order": order, "dim": dim, "entries": entries}


# plain levels, numerators and denominators past 2^64 included, with at most
# one entry outside the plain form at a random index
PLAIN_LEVEL_ENTRY = st.one_of(
    st.builds(
        _plain_rational,
        st.sampled_from(["", "-"]),
        st.one_of(st.integers(0, 10**6), st.integers(2**64, 2**80)),
        st.integers(0, 3),
        st.one_of(st.none(), st.integers(1, 10**4), st.integers(2**64, 2**70)),
    ),
    st.sampled_from(["-0", "007", "2/4", "-6/4", "0/9", "-0/3"]),
)
NON_PLAIN_ENTRY = st.sampled_from(
    ["1/", "1/-2", "1/+2", "+1", " 1", "1 /2", "1/ 2", "1_0", "1,2", "", "1/0", "٣", 3, True, 1.5, "-", "1//2", "0/0"]
)


@st.composite
def plain_level_with_one_injected(draw):
    order, dim = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    entries = draw(st.lists(PLAIN_LEVEL_ENTRY, min_size=dim**order, max_size=dim**order))
    if draw(st.booleans()):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(NON_PLAIN_ENTRY)
    return {"order": order, "dim": dim, "entries": entries}


def fraction_reference(x, where):
    """The value of one JSON entry, or the ParseError text it must give."""
    if type(x) is int:
        return Fraction(x)
    if not isinstance(x, str):
        return f"{where}: expected a rational string, got {type(x).__name__}"
    return fraction_or_message(x, where)


# a level that repeats a few values, as the levels of confined and collinear
# paths do, is parsed through its distinct entries; one drawn from a larger
# pool is not
REPEATED_VALUES = st.sampled_from(["0", "-0", "1/3", "-1/3", "2/4", "-6/4", "5", "-5", "7/6", "0/9"])


@st.composite
def level_from_a_pool(draw):
    order, dim = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    pool = draw(st.lists(st.one_of(REPEATED_VALUES, PLAIN_LEVEL_ENTRY), min_size=1, max_size=draw(st.sampled_from([2, 4, 60]))))
    entries = draw(st.lists(st.sampled_from(pool), min_size=dim**order, max_size=dim**order))
    if draw(st.integers(0, 3)) == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.one_of(NON_PLAIN_ENTRY, st.just([1])))
    return {"order": order, "dim": dim, "entries": entries}


@settings(max_examples=500, deadline=None)
@given(st.one_of(level_json(), level_json(PLAIN_ENTRY), plain_level_with_one_injected(), level_from_a_pool()))
def test_tensor_from_json_agrees_with_fraction_tensor(blob):
    # Fraction's syntax varies by Python version ("3_0" needs 3.11), so an
    # entry Fraction rejects must make tensor_from_json raise its message at
    # the first such entry
    values = [fraction_reference(x, f"tensor.entries[{i}]") for i, x in enumerate(blob["entries"])]
    bad = [i for i, v in enumerate(values) if isinstance(v, str)]
    if bad:
        with pytest.raises(ParseError) as exc:
            tensor_from_json(blob)
        assert (str(exc.value), exc.value.where) == (values[bad[0]], f"tensor.entries[{bad[0]}]")
        return
    den = lcm(*(v.denominator for v in values))
    got = tensor_from_json(blob)
    assert (got.nums, got.den) == (tuple(int(v * den) for v in values), den)
    assert type(got.nums) is tuple and all(type(n) is int for n in got.nums)


def test_distinct_route_maps_each_entry_by_its_value():
    entries = ["0"] * 32
    entries[5], entries[20] = "1/2", "-3"
    t = tensor_from_json({"order": 5, "dim": 2, "entries": entries})
    assert t.entries == tuple(Fraction(x) for x in entries)


def test_distinct_route_takes_den_from_every_entry_not_the_sample():
    # the sampled entries 0, 8, 16 and 24 are all "0"; only entry 31 has a q
    entries = ["0"] * 31 + ["1/3"]
    t = tensor_from_json({"order": 5, "dim": 2, "entries": entries})
    assert (t.nums[-1], t.den) == (1, 3) and t.entries[-1] == Fraction(1, 3)


@pytest.mark.parametrize("position", [0, 7, 8, 31])
@pytest.mark.parametrize("bad", ["1/0", "1/", "1//2", [1], 3.5])
def test_bad_entry_among_repeats_names_its_index_in_the_full_level(bad, position):
    entries = ["1/2", "0", "0", "-1/2"] * 8
    entries[position] = bad
    where = f"tensor.entries[{position}]"
    expected = fraction_reference(bad, where)
    with pytest.raises(ParseError) as exc:
        tensor_from_json({"order": 5, "dim": 2, "entries": entries})
    assert (str(exc.value), exc.value.where) == (expected, where)


def test_a_repeated_bad_entry_is_named_at_its_first_index():
    entries = ["1/2", "0"] * 16
    entries[9] = entries[30] = "1/0"
    with pytest.raises(ParseError) as exc:
        tensor_from_json({"order": 5, "dim": 2, "entries": entries})
    assert (str(exc.value), exc.value.where) == (fraction_reference("1/0", "tensor.entries[9]"), "tensor.entries[9]")


def test_collinear_level_takes_the_distinct_route_and_a_generic_one_does_not(monkeypatch):
    from sigtensor import serialize

    parsed = []
    plain = serialize._parse_plain
    monkeypatch.setattr(serialize, "_parse_plain", lambda items: parsed.append(len(items)) or plain(items))
    collinear = pwl_signature(Path.from_increments([[2, -1, 3, 1, -3], [4, -2, 6, 2, -6]]), 5).level(5)
    generic = pwl_signature(Path.from_increments([[1, -2, 3, 0, 2], [-3, 1, 0, 2, -1], [2, 2, -1, -3, 1]]), 5).level(5)
    for t in (collinear, generic):
        assert tensor_from_json(tensor_to_json(t)) == t
    assert parsed[0] < 5**5 // 10 and parsed[1] == 5**5


# the edge strings of test_parse_rational_agrees_with_fraction_on_edge_strings, and
# near misses of the plain form that a whole-level check must still reject
EDGE_STRINGS = ["--3", "+3", " 3", "3 ", "1/-2", "1/0", "-0/0", "3_0", "٣", "007/014", "-12/4", "1/2/3", "",
                "1,2", ",", "1/", "/3", "-", "3-", "1//2", "1/-0", "1/2-", "1/+2", "1 /2", "1/ 2"]


@pytest.mark.parametrize("position", [0, 3])
@pytest.mark.parametrize("text", EDGE_STRINGS)
def test_tensor_from_json_edge_string_gives_parse_rational_value_or_message(text, position):
    entries = ["1/2", "-3", "0", "5/6"]
    entries[position] = text
    where = f"tensor.entries[{position}]"
    try:
        value = parse_rational(text, where)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tensor_from_json({"order": 2, "dim": 2, "entries": entries})
        assert str(got.value) == str(exc) and got.value.where == where
    else:
        t = tensor_from_json({"order": 2, "dim": 2, "entries": entries})
        assert t.entries[position] == value
        assert t == Tensor(2, 2, [parse_rational(x) for x in entries])


def test_tensor_from_json_memory_stays_flat_on_a_large_level():
    # on this level (Python 3.11) a per-entry parse peaked at 234 KB, the
    # whole-level parse at 169 KB and a backtracking regex over the joined
    # level at 1.5 MB; the bound is twice the 268 KB seen on other levels.
    # A fresh interpreter measures it: in this one the peak depends on
    # which tests ran before.
    script = """
import tracemalloc
from sigtensor import Path, pwl_signature
from sigtensor.serialize import tensor_from_json, tensor_to_json
incs = [[1, -2, 3, 0, 2], [-3, 1, 0, 2, -1], [2, 2, -1, -3, 1], [0, -1, 3, 1, -2],
        [-2, 3, 1, -1, 0], [3, 0, -2, 2, 1], [1, 1, 1, -3, 3], [-1, -3, 2, 0, -2]]
blob = tensor_to_json(pwl_signature(Path.from_increments(incs), 5).level(5))
assert len(blob["entries"]) == 5**5 and any("/" in x for x in blob["entries"])
tracemalloc.start()
tensor_from_json(blob)
print(tracemalloc.get_traced_memory()[1])
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sigtensor.__file__))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) < 2 * 268 * 1024


def test_tensor_from_json_reads_digits_past_int_limit_as_parse_rational_does():
    text = "1" * 5000
    try:
        expected = parse_rational(text, "tensor.entries[1]")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            tensor_from_json({"order": 1, "dim": 2, "entries": ["1", text]})
        assert str(got.value) == str(exc)
    else:
        assert tensor_from_json({"order": 1, "dim": 2, "entries": ["1", text]}).entries[1] == expected


@st.composite
def fraction_tensors(draw):
    order, dim = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return Tensor(order, dim, draw(st.lists(st.fractions(), min_size=dim**order, max_size=dim**order)))


@settings(max_examples=200, deadline=None)
@given(fraction_tensors())
def test_tensor_to_json_writes_str_of_each_fraction_without_building_them(t):
    blob = tensor_to_json(t)
    assert "entries" not in t.__dict__
    assert blob["entries"] == [str(x) for x in t.entries]
    assert (blob["order"], blob["dim"]) == (t.order, t.dim)


@pytest.mark.parametrize("items, error", [
    (["1", 2], TypeError),
    (["1", None], TypeError),
    (["1/2", "1/0"], ValueError),
    (["1/2", "3/-4"], ValueError),
    (["1/2", "1/"], ValueError),
    (["1/2", "1.5"], ValueError),
    (["1/2", "1/2/3"], ValueError),
    (["1/2", "1,2"], ValueError),
])
def test_parse_plain_raises_type_error_for_a_non_string_and_value_error_otherwise(items, error):
    with pytest.raises(error):
        serialize._parse_plain(items)


# "p" when q = 1, else "p/q", unreduced as often as not
plain_entries = st.tuples(st.integers(-50, 50), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}" if pq[1] > 1 else str(pq[0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(plain_entries, min_size=1, max_size=40))
def test_parse_plain_puts_every_entry_over_the_lcm_of_its_denominators(texts):
    nums, den = serialize._parse_plain(texts)
    assert den == lcm(*(int(x.partition("/")[2] or 1) for x in texts))
    assert [Fraction(n, den) for n in nums] == [Fraction(x) for x in texts]
