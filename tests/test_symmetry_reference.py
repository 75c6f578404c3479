"""symmetry_report against the four-scan report it replaced, kept here as the
reference: the full group, the skew group, then each partial block scanned
on its own. The per-position scan of references.py reads entries through Tensor
indexing, one multi-index at a time, in the order the witness is defined:
positions in order; at each, the multi-indices I with I[pos] < I[pos+1] in
lexicographic order, then (for sign -1) those with I[pos] == I[pos+1]."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sigtensor import SymmetryReport, Tensor, symmetry_report

from references import reference_violation

SETTINGS = settings(max_examples=150, deadline=None)


def reference_report(t: Tensor) -> SymmetryReport:
    """Four scans: symmetric, skew, and (for a non-symmetric tensor) the
    first and last blocks, each from position 0 of its own range."""
    k = t.order
    sym_w = reference_violation(t, range(k - 1), +1)
    skew_w = reference_violation(t, range(k - 1), -1)
    first_w = last_w = None
    if sym_w is not None:
        first_w = reference_violation(t, range(k - 2), +1)
        last_w = reference_violation(t, range(1, k - 1), +1)
    partial = {name for name, w in (("first_k_minus_1", first_w), ("last_k_minus_1", last_w)) if w is None}
    witness = next((w for w in (sym_w, skew_w, first_w, last_w) if w is not None), None)
    return SymmetryReport(sym_w is None, skew_w is None, frozenset(partial), witness)


def symmetrized(t: Tensor, modes) -> Tensor:
    """The average of t over all permutations of the given 0-based modes."""
    perms = list(itertools.permutations(modes))
    out = []
    for index in t.indices():
        total = Fraction(0)
        for perm in perms:
            moved = list(index)
            for src, dst in zip(modes, perm):
                moved[dst] = index[src]
            total += t[tuple(moved)]
        out.append(total / len(perms))
    return Tensor(t.order, t.dim, tuple(out))


def skewed(t: Tensor) -> Tensor:
    """The alternating sum of t over all permutations of its modes."""
    k = t.order
    out = []
    for index in t.indices():
        total = Fraction(0)
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
            total += (-1) ** inversions * t[tuple(index[p] for p in perm)]
        out.append(total)
    return Tensor(t.order, t.dim, tuple(out))


@st.composite
def tensors(draw):
    """Order 2..5, d <= 3: dense, sparse, fully symmetric, symmetric in the
    first or last k-1 modes, skew, and symmetric plus one changed entry."""
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, 3 if k <= 4 else 2))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    sparse = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1, 2)])
    entries = draw(st.lists(draw(st.sampled_from([values, sparse])), min_size=d**k, max_size=d**k))
    t = Tensor(k, d, tuple(entries))
    family = draw(st.sampled_from(["plain", "symmetric", "first", "last", "skew", "perturbed"]))
    if family == "symmetric":
        t = symmetrized(t, range(k))
    elif family == "first":
        t = symmetrized(t, range(k - 1))
    elif family == "last":
        t = symmetrized(t, range(1, k))
    elif family == "skew":
        t = skewed(t)
    elif family == "perturbed":
        t = symmetrized(t, range(k))
        nums = list(t.entries)
        nums[draw(st.integers(0, d**k - 1))] += draw(st.sampled_from([Fraction(1), Fraction(-2, 3)]))
        t = Tensor(k, d, tuple(nums))
    return t


@SETTINGS
@given(tensors())
def test_report_matches_the_four_scan_reference(t):
    assert symmetry_report(t) == reference_report(t)


def first_violation_at(k: int, p: int) -> Tensor:
    """A symmetric tensor of order k (d = 2) with one entry changed at the
    index (1, ..., 1, 2, 1, ...) whose 2 sits at position p + 1, so every
    adjacent transposition before position p still holds."""
    t = symmetrized(Tensor.from_entries(k, 2, range(1, 2**k + 1)), range(k))
    index = (1,) * (p + 1) + (2,) + (1,) * (k - p - 2)
    nums = list(t.entries)
    nums[t.offset(index)] += 1
    return Tensor(k, 2, tuple(nums))


@pytest.mark.parametrize("k, p", [(k, p) for k in range(2, 6) for p in range(k - 1)])
def test_first_violation_at_each_position(k, p):
    t = first_violation_at(k, p)
    want = reference_report(t)
    assert reference_violation(t, range(k - 1), +1)[0][: p + 2] == (1,) * (p + 1) + (2,)
    assert symmetry_report(t) == want
    # the changed entry also breaks position p + 1 when that is below k - 1,
    # so only the first block can hold, and only at p = k-2; at k = 2 both blocks are empty
    assert ("first_k_minus_1" in want.partial) == (p == k - 2)
    assert ("last_k_minus_1" in want.partial) == (k == 2)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("block, modes", [("first_k_minus_1", "first"), ("last_k_minus_1", "last")])
def test_block_symmetric_tensors(k, block, modes):
    t = Tensor.from_entries(k, 2, [(i * i) % 7 - 3 for i in range(2**k)])
    t = symmetrized(t, range(k - 1) if modes == "first" else range(1, k))
    report = symmetry_report(t)
    assert report == reference_report(t)
    assert report.partial == {block} and not report.is_symmetric


@st.composite
def confined_tensors(draw):
    """A tensor of every family above, zero wherever a letter from a drawn
    set occurs, as the levels of a path in a coordinate subspace are.
    Zeroing by letters commutes with permuting positions, so each family
    keeps its symmetry, and every run pair of a dead letter is zero."""
    t = draw(tensors())
    dead = draw(st.sets(st.integers(1, t.dim), min_size=1, max_size=max(1, t.dim - 1)))
    return Tensor(t.order, t.dim, tuple(0 if dead.intersection(index) else x for index, x in zip(t.indices(), t.entries)))


@SETTINGS
@given(confined_tensors())
def test_report_of_zero_heavy_tensors_matches_the_four_scan_reference(t):
    assert symmetry_report(t) == reference_report(t)
