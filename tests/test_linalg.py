from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sigtensor.linalg import Subspace, matrix_rank, rref

from references import reference_rank


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_exact_arithmetic_round_trip(a, b):
    assert (a + b) - b == a


def test_rank_zero_matrix():
    assert matrix_rank([[0, 0], [0, 0], [0, 0]]) == 0
    assert matrix_rank([]) == 0


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_rank_identity(d):
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    assert matrix_rank(eye) == d


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)], [Fraction(2), Fraction(4, 3)]]
    # row3 = 4 * row1, row2 = 3 * row1: rank 1
    assert matrix_rank(m) == 1


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_matches_naive_elimination(rows):
    assert matrix_rank(rows) == reference_rank(rows)


def test_rref_canonical():
    reduced = rref([[0, 2, 4], [1, 1, 1]])
    assert reduced == [[1, 0, -1], [0, 1, 2]]


def test_subspace_equality_is_structural():
    a = Subspace.span([[1, 1, 0], [0, 0, 1]], 3)
    b = Subspace.span([[2, 2, 2], [0, 0, 5], [1, 1, 3]], 3)
    assert a == b
    assert a.dim == 2 and not a.is_full


def test_subspace_contains():
    w = Subspace.span([[1, 0, -1], [0, 1, 1]], 3)
    assert w.contains([2, 3, 1])
    assert not w.contains([0, 0, 1])
    assert w.contains_subspace(Subspace.span([[1, 1, 0]], 3))


def test_subspace_sum_and_extremes():
    a = Subspace.span([[1, 0, 0]], 3)
    b = Subspace.span([[0, 1, 0]], 3)
    assert (a + b).dim == 2
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3).is_full


@pytest.mark.parametrize("d", [1, 3, 6])
def test_full_subspace_is_one_shared_identity_per_dimension(d):
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))
    w = Subspace.full(d)
    assert w is Subspace.full(d)
    assert w.basis == eye and all(type(x) is Fraction for row in w.basis for x in row)
    built = Subspace(d, eye)
    assert w == built and hash(w) == hash(built)
    assert w == Subspace.span(eye, d) == Subspace.span(reversed(eye), d)
    assert w != Subspace.full(d + 1) and w != Subspace.span(eye[1:], d)
