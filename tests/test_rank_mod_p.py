"""Cross-checks of the packed modular rank, linalg._rank_mod_p, behind the
flattening and Koszul lower bounds. Expected values come from the exact
integer_rank (the Bareiss kernel _echelon), from a plain Gaussian elimination
over the integers mod P below, or from matrices worked out by hand."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sigtensor.linalg import P, _rank_mod_p, integer_rank

SETTINGS = settings(max_examples=80, deadline=None)

# small entries, with now and then one that needs reducing mod P
entries = st.one_of(st.integers(-6, 6), st.integers(-(2**70), 2**70))


def reference_rank_mod_p(rows) -> int:
    """Gaussian elimination over the integers mod P, one entry at a time."""
    m = [[x % P for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, P)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % P
            m[i] = [(a - f * b) % P for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def matrices(n_max: int = 8, elements=entries):
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), max_size=8).map(lambda rows: (rows, n)))


def product(a, b, n: int) -> list[list[int]]:
    """A . B for an r x k matrix A and a k x n matrix B: rank at most k."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * n for row in a]


@st.composite
def low_rank(draw):
    """product(A, B, n) with k <= 4."""
    r, k, n = draw(st.integers(0, 8)), draw(st.integers(0, 4)), draw(st.integers(0, 8))
    a = draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return product(a, b, n), n


@SETTINGS
@given(matrices())
def test_rank_matches_integer_rank_on_random_matrices(case):
    rows, n = case
    assert _rank_mod_p(rows, n) == integer_rank(rows)


@SETTINGS
@given(low_rank())
def test_rank_matches_integer_rank_on_low_rank_products(case):
    rows, n = case
    assert _rank_mod_p(rows, n) == integer_rank(rows)


@SETTINGS
@given(matrices(), st.data())
def test_rank_matches_integer_rank_with_zero_rows_mixed_in(case, data):
    rows, n = case
    for _ in range(data.draw(st.integers(1, 4))):
        rows.insert(data.draw(st.integers(0, len(rows))), [0] * n)
    assert _rank_mod_p(rows, n) == integer_rank(rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(1297, 1400), st.integers(0, 4), st.integers(0, 2**32))
def test_rank_matches_integer_rank_on_rows_wider_than_1296_columns(n, k, seed):
    # the entries come from a seeded Random: hypothesis draws a list of 1400 entries slowly
    rng = random.Random(seed)
    a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(8)]
    b = [[rng.choice([0, rng.randint(-6, 6), rng.randint(-(2**70), 2**70)]) for _ in range(n)] for _ in range(k)]
    rows = product(a, b, n)
    assert _rank_mod_p(rows, n) == integer_rank(rows)


def test_empty_input_and_zero_columns_have_rank_0():
    assert _rank_mod_p([], 0) == _rank_mod_p([], 5) == 0
    assert _rank_mod_p([[], [], []], 0) == 0


def test_each_step_reads_the_field_at_the_pivot_column():
    # the second and third rows are multiples of the first, pivoted at column 2
    assert _rank_mod_p([[0, 1, 2, 3], [0, 2, 4, 6], [0, -3, -6, -9]], 4) == 1
    assert _rank_mod_p([[0, 1, 2, 3], [0, 2, 4, 7], [5, 0, 0, 1]], 4) == 3


def test_residues_are_reduced_before_the_pivot_search():
    # the step leaves the second row at (P, P): a zero vector mod P
    assert _rank_mod_p([[1, 1], [2, 2]], 2) == 1


def test_each_step_scales_by_the_inverse_of_the_pivot():
    # pivot entry 2: the step adds (P - 4 / 2) times (2, 1) to (4, 2)
    assert _rank_mod_p([[2, 1], [4, 2]], 2) == 1
    assert _rank_mod_p([[3, 1, 0], [0, 5, 1], [3, 6, 1]], 3) == 2


# -- adversarial: entries that are multiples of P

def test_multiples_of_p_give_a_smaller_rank_without_a_crash():
    assert _rank_mod_p([[P, 0], [0, P]], 2) == 0
    assert (_rank_mod_p([[1, 0], [0, P]], 2), integer_rank([[1, 0], [0, P]])) == (1, 2)
    # every 2 x 2 minor is a multiple of P, the 1 x 1 ones are not
    assert (_rank_mod_p([[1, 1], [1, 1 + P]], 2), integer_rank([[1, 1], [1, 1 + P]])) == (1, 2)


@SETTINGS
@given(matrices(elements=st.sampled_from([0, 1, -1, P, -P, 2 * P, -2 * P])))
def test_rank_mod_p_of_multiples_of_p_never_exceeds_the_rank(case):
    rows, n = case
    rank = _rank_mod_p(rows, n)
    assert rank == reference_rank_mod_p(rows)
    assert rank <= integer_rank(rows)


@pytest.mark.parametrize("p_multiple", [P, -3 * P, P * P])
def test_a_row_of_multiples_of_p_is_dropped(p_multiple):
    rows = [[1, 2, 3], [p_multiple, 0, 2 * p_multiple], [0, 1, 1]]
    assert _rank_mod_p(rows, 3) == reference_rank_mod_p(rows) == 2
