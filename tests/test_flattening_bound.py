"""Cross-checks of the integer Bareiss kernel and the flattening scan built
on it. Expected ranks come from the plain Fraction elimination below, never
from the kernel itself."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from sigtensor import (
    Decomposition,
    Tensor,
    certify_rank,
    flatten,
    flattening_lower_bound,
    koszul_lower_bound,
    matrix_rank,
)
from sigtensor import ranks
from sigtensor.linalg import integer_rank

SETTINGS = settings(max_examples=60, deadline=None)

# denominators up to 6, so rows and tensors mix denominators
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def reference_rank(rows) -> int:
    """Gauss-Jordan elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_flattening(t: Tensor, part) -> list[list[Fraction]]:
    """The flattening along (part, complement), read entry by entry through
    Tensor indexing."""
    rest = [p for p in range(1, t.order + 1) if p not in part]
    letters = range(1, t.dim + 1)

    def entry(row, col):
        index = [0] * t.order
        for p, i in list(zip(part, row)) + list(zip(rest, col)):
            index[p - 1] = i
        return t[tuple(index)]

    return [[entry(r, c) for c in product(letters, repeat=len(rest))] for r in product(letters, repeat=len(part))]


def bipartitions(order: int):
    return [part for size in range(1, order) for part in combinations(range(1, order + 1), size)]


def reference_flattening_bound(t: Tensor) -> int:
    """Max Fraction rank of the flattening along every proper nonempty S."""
    return max(reference_rank(reference_flattening(t, part)) for part in bipartitions(t.order))


@st.composite
def matrices(draw, entries=rationals):
    n_cols = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols), max_size=6))


@st.composite
def terms(draw, d, k, max_terms=3):
    vector = st.lists(rationals, min_size=d, max_size=d)
    return draw(st.lists(st.tuples(rationals, st.lists(vector, min_size=k, max_size=k)), max_size=max_terms))


@st.composite
def tensors(draw):
    """Order 2..4, d <= 3: dense random entries, zero, rank 1, or a short
    sum of elementary terms."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["dense", "zero", "rank1", "sum"]))
    if kind == "dense":
        return Tensor.from_entries(k, d, draw(st.lists(rationals, min_size=d**k, max_size=d**k)))
    if kind == "zero":
        return Tensor.zeros(k, d)
    return Decomposition.of(d, k, draw(terms(d, k, 1 if kind == "rank1" else 3))).realize()


@SETTINGS
@given(matrices())
def test_matrix_rank_matches_fraction_reference(rows):
    assert matrix_rank(rows) == reference_rank(rows)


@SETTINGS
@given(matrices(st.integers(-5, 5)))
def test_integer_rank_matches_fraction_reference_and_keeps_input(rows):
    before = [list(r) for r in rows]
    assert integer_rank(rows) == reference_rank(rows)
    assert rows == before


@SETTINGS
@given(tensors())
def test_flattening_bound_is_max_over_all_bipartitions(t):
    assert flattening_lower_bound(t) == reference_flattening_bound(t)
    assert flattening_lower_bound(t) == max(flatten(t, part).rank for part in bipartitions(t.order))


@SETTINGS
@given(tensors())
def test_flatten_reads_every_entry_at_its_index(t):
    for part in bipartitions(t.order):
        assert [list(row) for row in flatten(t, part).matrix] == reference_flattening(t, part)


@st.composite
def witnessed(draw):
    d, k = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    witness = Decomposition.of(d, k, draw(terms(d, k)))
    return witness.realize(), witness


def full_scan_lower(t: Tensor) -> int:
    lower = reference_flattening_bound(t)
    return max(lower, koszul_lower_bound(t)) if t.order == 3 else lower


@SETTINGS
@given(witnessed())
def test_certify_with_early_stop_matches_full_scan(case):
    t, witness = case
    cert = certify_rank(t, witness)
    lower = full_scan_lower(t)
    assert (cert.lower, cert.upper) == (lower, witness.length)
    assert cert.status == ("exact" if lower == witness.length else "bounded")


def test_certify_stops_once_the_bound_reaches_the_witness_length(monkeypatch):
    # e_1^(x)4 + e_2^(x)4 + e_3^(x)4 has rank 3; every flattening of cap 9 shows it
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    witness = Decomposition.of(3, 4, [(1, [e] * 4) for e in eye])
    t = witness.realize()
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return integer_rank(rows)

    monkeypatch.setattr(ranks, "integer_rank", counted)
    assert flattening_lower_bound(t) == 3
    full_calls, calls[:] = len(calls), []
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (3, 3, "exact")
    assert full_calls == 3  # the cap-3 bipartitions are skipped once rank 3 is found
    assert len(calls) == 1


def test_certify_scans_past_a_flattening_below_the_witness_length():
    # e1(x)e1(x)e1(x)e1 + e1(x)e1(x)e2(x)e2: the first flattening scanned,
    # S = {1, 2}, has rank 1; S = {1, 3} shows rank 2, the witness length
    e1, e2 = [1, 0], [0, 1]
    witness = Decomposition.of(2, 4, [(1, [e1, e1, e1, e1]), (1, [e1, e1, e2, e2])])
    t = witness.realize()
    assert flatten(t, (1, 2)).rank == 1
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (2, 2, "exact")


def test_certify_rejects_witness_of_huge_order_without_realizing_it():
    witness = Decomposition(2, 100_000_000_000, ())
    with pytest.raises(ValueError, match="invalid witness"):
        certify_rank(Tensor.zeros(2, 2), witness)


def test_certify_zero_tensor_with_empty_witness():
    for k in (1, 2, 3):
        cert = certify_rank(Tensor.zeros(k, 2), Decomposition(2, k, ()))
        assert (cert.lower, cert.upper, cert.status) == (0, 0, "exact")


def test_certify_rejects_witness_off_by_its_denominator_only():
    # (1/2) e1(x)e2 has the numerators of e1(x)e2 over denominator 2
    e1, e2 = [1, 0], [0, 1]
    t = Tensor.elementary([e1, e2])
    assert certify_rank(t, Decomposition.of(2, 2, [(1, [e1, e2])])).status == "exact"
    with pytest.raises(ValueError, match="invalid witness"):
        certify_rank(t, Decomposition.of(2, 2, [(Fraction(1, 2), [e1, e2])]))
    with pytest.raises(ValueError, match="invalid witness"):
        certify_rank(t.scale(Fraction(1, 3)), Decomposition.of(2, 2, [(Fraction(1, 6), [e1, e2])]))
