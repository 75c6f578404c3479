"""Cross-checks of the integer Bareiss kernel and the rank bounds built on
it: the flattening scan, the Koszul bound, the 2x2x2 classification, and
their soundness on sums of elementary tensors. Expected ranks come from the
plain Fraction elimination of references.py, never from the kernel itself;
the scan on the concise core is checked against the ambient scan it
replaced, and the one scan (ranks._scan) against the flattening and Koszul
scans it replaced."""

from fractions import Fraction
from itertools import combinations, product
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from sigtensor import (
    Decomposition,
    Tensor,
    certify_rank,
    classify_222_complex_rank,
    decompose_s_k_alpha,
    flatten,
    flattening_lower_bound,
    hyperdet_222,
    koszul_flatten,
    koszul_lower_bound,
    matrix_rank,
    s_k_alpha,
)
from sigtensor import ranks
from sigtensor.linalg import integer_rank
from sigtensor.tensors import _koszul_rows, mode_offsets

from references import reference_flattening, reference_rank

SETTINGS = settings(max_examples=60, deadline=None)

# denominators up to 6, so rows and tensors mix denominators
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


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


def recorded_ranks(monkeypatch) -> list:
    """The (rows, n) of each matrix the scan ranks from now on."""
    ranked, rank = [], ranks._rank_mod_p

    def recorded(rows, n):
        ranked.append((rows, n))
        return rank(rows, n)

    monkeypatch.setattr(ranks, "_rank_mod_p", recorded)
    return ranked


def test_certify_stops_once_the_bound_reaches_the_witness_length(monkeypatch):
    # a^(x)4 + b^(x)4 + c^(x)4 for independent a, b, c with no zero entry has
    # rank 3; every flattening of cap 9 shows it, and has 9 nonzero rows
    vectors = [[1, 1, 1], [1, 2, 3], [1, -1, 2]]
    witness = Decomposition.of(3, 4, [(1, [v] * 4) for v in vectors])
    t = witness.realize()
    calls = recorded_ranks(monkeypatch)
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


# -- the Koszul bound and the 2x2x2 classification, against Fraction references

def reference_koszul_bound(t: Tensor) -> int:
    """max over pivots of ceil(rank / (d - 1)) of the Fraction Koszul flattening."""
    if t.dim == 1:
        return 0
    return max(ceil(reference_rank(koszul_flatten(t, pivot)) / (t.dim - 1)) for pivot in (1, 2, 3))


@st.composite
def order3_tensors(draw, max_dim=4):
    """Order 3, d <= max_dim: dense rational entries or a short sum of
    elementary terms with rational factors."""
    d = draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        return Tensor.from_entries(3, d, draw(st.lists(rationals, min_size=d**3, max_size=d**3)))
    return Decomposition.of(d, 3, draw(terms(d, 3, 4))).realize()


@SETTINGS
@given(order3_tensors())
def test_koszul_bound_matches_the_fraction_koszul_flattening(t):
    assert koszul_lower_bound(t) == reference_koszul_bound(t)


def test_koszul_bound_reads_the_third_pivot():
    # pivots 1 and 2 both skew mode 3 and give 3 here; only pivot 3, which skews mode 2, reaches 4
    entries = [0, 0, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1, -1, 0, -1, 1, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0]
    t = Tensor.from_entries(3, 3, entries).scale(Fraction(2, 3))
    assert [ceil(reference_rank(koszul_flatten(t, p)) / 2) for p in (1, 2, 3)] == [3, 3, 4]
    assert koszul_lower_bound(t) == reference_koszul_bound(t) == 4


def reference_classify_222(t: Tensor) -> int:
    """The classification with its flattening ranks read from Fraction flattenings."""
    if t.is_zero:
        return 0
    ranks_ = [reference_rank(flatten(t, (mode,)).matrix) for mode in (1, 2, 3)]
    if all(r <= 1 for r in ranks_):
        return 1
    if all(r == 2 for r in ranks_) and hyperdet_222(t) == 0:
        return 3
    return 2


@SETTINGS
@given(st.data())
def test_classify_222_matches_the_flattening_reference(data):
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    kind = data.draw(st.sampled_from(["dense", "sparse", "terms"]))
    if kind == "terms":
        vector = st.lists(small, min_size=2, max_size=2)
        t = Decomposition.of(2, 3, data.draw(st.lists(st.tuples(small, st.lists(vector, min_size=3, max_size=3)), max_size=3))).realize()
    else:
        values = small if kind == "dense" else st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-1, 2)])
        t = Tensor.from_entries(3, 2, data.draw(st.lists(values, min_size=8, max_size=8)))
    assert classify_222_complex_rank(t) == reference_classify_222(t)


def test_classify_222_counts_each_mode_not_their_sum():
    # e1 (x) e2 (x) e1: every mode subspace is a line, their sum a plane
    assert classify_222_complex_rank(Tensor.elementary([[1, 0], [0, 1], [1, 0]])) == 1


# -- soundness: every lower bound is at most the length of a witness -----------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lower_bounds_never_exceed_the_number_of_elementary_terms(data):
    d, k = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
    if d == 4 and k == 5:
        k = 4  # keep each example under a few thousand entries
    vector = st.lists(rationals, min_size=d, max_size=d)
    raw = data.draw(st.lists(st.tuples(rationals, st.lists(vector, min_size=k, max_size=k)), min_size=1, max_size=4))
    witness = Decomposition.of(d, k, raw)
    t = witness.realize()
    r = witness.length
    assert r <= len(raw)
    assert flattening_lower_bound(t) <= r
    assert certify_rank(t, witness).lower <= r
    if k == 3:
        assert koszul_lower_bound(t) <= r


@SETTINGS
@given(st.integers(1, 4), st.integers(2, 5), st.data())
def test_a_nonzero_elementary_tensor_has_every_bound_one(d, k, data):
    nonzero = st.lists(rationals, min_size=d, max_size=d).filter(any)
    coeff = data.draw(rationals.filter(bool))
    witness = Decomposition.of(d, k, [(coeff, data.draw(st.lists(nonzero, min_size=k, max_size=k)))])
    t = witness.realize()
    assert witness.length == 1 and not t.is_zero
    assert flattening_lower_bound(t) == 1
    assert certify_rank(t, witness).lower == 1
    if k == 3:
        # the Koszul divisor d - 1 is 0 at d = 1, where the bound is defined as 0
        assert koszul_lower_bound(t) == (1 if d > 1 else 0)


# -- the concise core: flattenings scanned on the tensor restricted to the
# span U of its mode subspaces, against the ambient scan

def ambient_flattening_bound(nums, k: int, d: int, stop: int) -> int:
    """The flattening scan as it was before the one scan (ranks._scan)
    replaced it, body verbatim: its part list, cap skip and early stop. On
    t.nums and t.dim it is also the scan over all of Q^d, before the core."""
    if k <= 7:
        tail = range(2, k + 1)
        parts = [(1,) + tuple(p for i, p in enumerate(tail) if mask >> i & 1) for mask in range(2 ** (k - 1) - 1)]
    else:
        parts = list({tuple(range(1, k + 1, 2)), *(tuple(range(1, j + 1)) for j in range(1, k))})
    parts.sort(key=lambda s: (-min(len(s), k - len(s)), s))
    best = 0
    for part in parts:
        rest = [p for p in range(1, k + 1) if p not in part]
        small, large = (part, rest) if len(part) <= len(rest) else (rest, part)
        if d ** len(small) <= best:
            continue
        cols = mode_offsets(large, k, d)
        best = max(best, integer_rank([[nums[r + c] for c in cols] for r in mode_offsets(small, k, d)]))
        if best >= stop:
            break
    return best


@st.composite
def in_mode_subspaces(draw, dims, orders):
    """A witness and the sum of its elementary tensors, which lies in
    W_1 (x) ... (x) W_k: U is spanned by vectors with no zero entry (so a
    proper U is not a coordinate subspace), each W_i by its own integer
    combinations of U's basis, and each factor at mode i is a rational
    combination of W_i's basis."""
    d, k = draw(st.integers(*dims)), draw(st.integers(*orders))
    u = draw(st.integers(1, d))
    basis_u = draw(st.lists(st.lists(rationals.filter(bool), min_size=d, max_size=d), min_size=u, max_size=u))

    def combination(basis, coeffs):
        cs = draw(st.lists(coeffs, min_size=len(basis), max_size=len(basis)).filter(any))
        return [sum(c * x for c, x in zip(cs, column)) for column in zip(*basis)]

    w = [[combination(basis_u, st.integers(-2, 2)) for _ in range(draw(st.sampled_from(range(1, u + 1))))] for _ in range(k)]
    raw = [(draw(rationals.filter(bool)), [combination(w[i], rationals) for i in range(k)]) for _ in range(draw(st.integers(1, 3)))]
    witness = Decomposition.of(d, k, raw)
    return witness.realize(), witness


def check_core_against_ambient(t: Tensor, witness: Decomposition):
    k, d = t.order, t.dim
    full = ambient_flattening_bound(t.nums, k, d, len(t.nums))
    assert flattening_lower_bound(t) == full
    nums, core_dim = ranks._core(t)
    for stop in range(full + 1):  # stops below the maximum end the scan early
        assert ranks._scan(ranks._flattenings(nums, k, core_dim), stop) == ambient_flattening_bound(t.nums, k, d, stop)
    upper = witness.length
    lower = ambient_flattening_bound(t.nums, k, d, upper)
    if k == 3 and lower < upper:
        lower = max(lower, koszul_lower_bound(t))
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (lower, upper, "exact" if lower == upper else "bounded")


@SETTINGS
@given(in_mode_subspaces(dims=(1, 4), orders=(2, 5)))
def test_core_scan_matches_the_ambient_scan(case):
    check_core_against_ambient(*case)


@settings(max_examples=25, deadline=None)
@given(in_mode_subspaces(dims=(2, 3), orders=(6, 7)))
def test_core_scan_matches_the_ambient_scan_at_orders_6_and_7(case):
    check_core_against_ambient(*case)


@settings(max_examples=12, deadline=None)
@given(in_mode_subspaces(dims=(2, 3), orders=(8, 9)))
def test_core_scan_matches_the_ambient_scan_on_the_reduced_part_list(case):
    # from order 8 on the scan takes the odd/even split and the prefixes only
    check_core_against_ambient(*case)


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("d", [1, 2])
def test_core_of_the_zero_tensor_is_empty_and_scans_nothing(k, d):
    t = Tensor.zeros(k, d)
    assert ranks._core(t) == ([], 0)
    assert flattening_lower_bound(t) == 0
    cert = certify_rank(t, Decomposition(d, k, ()))
    assert (cert.lower, cert.upper, cert.status) == (0, 0, "exact")


def test_core_of_a_concise_tensor_is_the_tensor_itself():
    t = s_k_alpha([[1, 2, 0], [0, -1, 3], [2, 0, 1]], 4, 0)
    assert ranks._core(t) == (t.nums, 3)


def test_core_is_the_slice_at_the_pivot_coordinates():
    # v (x) v (x) v with v = (1, 2, 3): U is the line through v, its RREF row (1, 2, 3) pivots at coordinate 1
    t = Tensor.elementary([[1, 2, 3]] * 3)
    assert ranks._core(t) == ([1], 1)
    assert flattening_lower_bound(t) == 1


def test_core_spans_every_mode_subspace_not_only_the_first():
    # a (x) b (x) c + a (x) b' (x) c' with a, b, b', c, c' in the non-coordinate
    # plane U = span{(1, 1, 1, 1), (1, 2, 3, 4)}: mode 1 spans the line through a,
    # modes 2 and 3 span U, and the flattening {2} | {1, 3} has rank 2
    a, b, b2, c, c2 = [1, 1, 1, 1], [1, 2, 3, 4], [2, 3, 4, 5], [0, 1, 2, 3], [3, 5, 7, 9]
    witness = Decomposition.of(4, 3, [(1, [a, b, c]), (1, [a, b2, c2])])
    t = witness.realize()
    assert ranks._core(t)[1] == 2
    assert flattening_lower_bound(t) == reference_flattening_bound(t) == 2
    assert certify_rank(t, witness).lower == 2


def test_axis_path_in_q4_keeps_the_ambient_koszul_bound():
    # level 3 of e1, e2, e3 embedded in Q^4: the flattenings give 3 and only
    # the Koszul bound at the ambient divisor d - 1 = 3 reaches the rank 4
    vs = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    t, witness = s_k_alpha(vs, 3, 0), decompose_s_k_alpha(vs, 3, 0)
    assert ranks._core(t)[1] == 3
    assert flattening_lower_bound(t) == 3
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (4, 4, "exact")


# -- the one scan (ranks._scan) against the two scans it replaced

def reference_koszul_scan(t: Tensor) -> int:
    """ranks.koszul_lower_bound as it was before the one scan, body verbatim:
    every pivot ranked, no cap skip and no early stop."""
    if t.order != 3:
        raise ValueError("the Koszul bound needs an order-3 tensor")
    d = t.dim
    if d == 1:
        return 0
    return max(-(-integer_rank(_koszul_rows(t.nums, d, pivot)) // (d - 1)) for pivot in (1, 2, 3))


@st.composite
def scan_cases(draw):
    """Order 2..6 and a witness: dense rational entries with the witness of
    one axis term per nonzero entry, or a short sum of elementary terms
    (low rank) with those terms."""
    k = draw(st.integers(2, 6))
    d = draw(st.integers(1, {2: 4, 3: 4, 4: 3, 5: 3, 6: 2}[k]))
    if draw(st.booleans()):
        witness = Decomposition.of(d, k, draw(terms(d, k)))
        return witness.realize(), witness
    t = Tensor.from_entries(k, d, draw(st.lists(rationals, min_size=d**k, max_size=d**k)))
    axes = [[int(i == j) for j in range(d)] for i in range(d)]
    indices = product(range(d), repeat=k)  # the storage order of t.entries
    return t, Decomposition.of(d, k, [(x, [axes[i] for i in index]) for index, x in zip(indices, t.entries)])


@SETTINGS
@given(scan_cases())
def test_the_one_scan_matches_the_two_scans_it_replaced(case):
    t, witness = case
    k, d = t.order, t.dim
    full = ambient_flattening_bound(t.nums, k, d, len(t.nums))
    for stop in range(full + 1):  # stops below the maximum end the scan early
        assert ranks._scan(ranks._flattenings(t.nums, k, d), stop) == ambient_flattening_bound(t.nums, k, d, stop)
    nums, core_dim = ranks._core(t)
    assert flattening_lower_bound(t) == ambient_flattening_bound(nums, k, core_dim, len(nums)) == full
    if k == 3:
        assert koszul_lower_bound(t) == reference_koszul_scan(t)
    # certify_rank before the one scan: flattenings of the core up to the
    # witness length, then at order 3 the Koszul bound if still below it
    upper = witness.length
    lower = ambient_flattening_bound(nums, k, core_dim, upper)
    if k == 3 and lower < upper:
        lower = max(lower, reference_koszul_scan(t))
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (lower, upper, "exact" if lower == upper else "bounded")


def test_the_scan_ranks_a_candidate_whose_cap_is_one_above_the_best():
    # e1 (x) (e1 (x) e1 + e2 (x) e2): the first bipartition scanned, {1} | {2, 3},
    # has rank 1; the next, of cap 2, shows rank 2
    e1, e2 = [1, 0], [0, 1]
    witness = Decomposition.of(2, 3, [(1, [e1, e1, e1]), (1, [e1, e2, e2])])
    t = witness.realize()
    assert flatten(t, (1,)).rank == 1
    assert flattening_lower_bound(t) == reference_flattening_bound(t) == 2
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (2, 2, "exact")


def test_the_scan_ranks_a_candidate_only_if_its_nonzero_rows_can_beat_the_best(monkeypatch):
    ranked = recorded_ranks(monkeypatch)
    first = [[1, 0, 0], [0, 0, 0], [0, 1, 0]]  # rank 2 over 2 nonzero rows
    equal = [[1, 1, 1], [0, 0, 0], [1, 2, 3], [0, 0, 0]]  # 2 nonzero rows: cannot beat 2
    above = [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]  # 3 nonzero rows, rank 3
    halves = [[1, 0, 0, 0]] * 5 + [[0, 0, 0, 0]]  # divisor 2: ceil(5 / 2) cannot beat 3
    candidates = [(3, 1, lambda: first), (4, 1, lambda: equal), (4, 1, lambda: above), (6, 2, lambda: halves)]
    assert ranks._scan(candidates, 10) == 3
    assert ranked == [([[1, 0, 0], [0, 1, 0]], 3), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)]


def test_the_axis_path_of_three_increments_at_level_5_ranks_1_of_its_10_flattenings(monkeypatch):
    # the 10 flattenings of cap 9 have 6 nonzero rows (the nondecreasing index
    # pairs); the witness caps three at 8, three at 7 and four at 6 or less:
    # the first, of cap 8, has rank 6, and no later one can beat it
    ranked = recorded_ranks(monkeypatch)
    vs = [[1, 2, 0], [0, -1, 3], [2, 1, 1]]
    cert = ranks._certify_s_k_alpha(vs, 5, 0, decompose_s_k_alpha(vs, 5, 0))
    assert (cert.lower, cert.upper, cert.status) == (6, 9, "bounded")
    assert [(len(rows), n) for rows, n in ranked] == [(6, 27)]


def test_certify_ranks_6_of_the_10_balanced_flattenings_of_a_rank_cert_input(monkeypatch):
    # three independent increments in Q^4 at level 5: the witness span's 3^5
    # slice has 10 flattenings of cap 9, and the 9-term witness caps four of
    # them at 6 or less, the rank the first one shows
    ranked = recorded_ranks(monkeypatch)
    vs = [[1, 2, 0, 1], [0, -1, 3, 2], [2, 1, 1, -1]]
    cert = certify_rank(s_k_alpha(vs, 5, 0), decompose_s_k_alpha(vs, 5, 0))
    assert (cert.lower, cert.upper, cert.status) == (6, 9, "bounded")
    assert [(len(rows), n) for rows, n in ranked] == [(9, 27)] * 6


def test_certify_ranks_no_koszul_flattening_once_the_flattenings_reach_the_witness_length(monkeypatch):
    # e1^(x)3 + e2^(x)3 + e3^(x)3 in Q^3: the first flattening shows rank 3
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    witness = Decomposition.of(3, 3, [(1, [e] * 3) for e in eye])
    t = witness.realize()
    calls = recorded_ranks(monkeypatch)
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (3, 3, "exact")
    assert [(len(rows), n) for rows, n in calls] == [(3, 9)]  # one 3 x 9 flattening, no Koszul matrix


# -- the certificate's own sources of the core: the span of the witness's
# factors in certify_rank, the axis-path tensor for independent increments

def ambient_certificate(t: Tensor, upper: int) -> int:
    """certify_rank's lower bound from the ambient scan: the flattenings of
    t up to the witness length, then at order 3 the Koszul bound if still below it."""
    lower = ambient_flattening_bound(t.nums, t.order, t.dim, upper)
    if t.order == 3 and lower < upper:
        lower = max(lower, koszul_lower_bound(t))
    return lower


@st.composite
def redundant(draw, witness: Decomposition):
    """The witness rewritten without changing the tensor it realizes, so
    that factor lists repeat, with parallel, negated and zero factors and
    zero coefficients: each term is kept, split into two halves with the same
    factors, or has one factor scaled by a nonzero s (s = -1 negates it) and
    its coefficient divided by s, and a zero-coefficient term is inserted.
    Then a term is added that shares its factors at some positions with a
    rewritten one (a rank that distinct factor tuples bound and single
    positions do not), and the same with one shared factor zeroed. Returns
    the tensor the result realizes and the result."""
    d, k = witness.dim, witness.order
    vector = st.lists(rationals, min_size=d, max_size=d).map(tuple)
    terms = []
    for c, factors in witness.terms:
        how = draw(st.sampled_from(["kept", "halves", "scaled"]))
        if how == "halves":
            terms += [(c / 2, factors)] * 2
        elif how == "scaled":
            i, s = draw(st.integers(0, k - 1)), draw(st.sampled_from([Fraction(-1), Fraction(2), Fraction(-1, 3)]))
            terms.append((c / s, factors[:i] + (tuple(s * x for x in factors[i]),) + factors[i + 1:]))
        else:
            terms.append((c, factors))
    terms.insert(draw(st.integers(0, len(terms))), (Fraction(0), tuple(draw(st.lists(vector, min_size=k, max_size=k)))))
    assert Decomposition(d, k, terms).realize() == witness.realize()
    shared = list(draw(st.sampled_from(terms))[1])
    fresh = draw(st.lists(vector, min_size=k, max_size=k))
    kept = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    terms.append((draw(rationals.filter(bool)), tuple(f if keep else g for f, g, keep in zip(shared, fresh, kept))))
    shared[draw(st.integers(0, k - 1))] = (Fraction(0),) * d
    terms.append((draw(rationals), tuple(shared)))
    witness = Decomposition(d, k, terms)
    return witness.realize(), witness


def assert_witness_caps_bound_every_flattening(t: Tensor, witness: Decomposition):
    """Each candidate of the ambient scan given the witness is a flattening
    of t (its shorter side as rows, over t's denominator) whose cap is at
    least its Fraction rank."""
    k = t.order
    ranked = {}
    for part in bipartitions(k):
        if len(part) <= k - len(part):
            flattening = reference_flattening(t, part)
            ranked[tuple(tuple(int(x * t.den) for x in row) for row in flattening)] = reference_rank(flattening)
    candidates = list(ranks._flattenings(t.nums, k, t.dim, witness))
    assert len(candidates) == 2 ** (k - 1) - 1
    for cap, divisor, rows in candidates:
        assert divisor == 1 and cap >= ranked[tuple(map(tuple, rows()))]


@SETTINGS
@given(in_mode_subspaces(dims=(1, 4), orders=(2, 5)), st.sampled_from(["as drawn", "wider", "zero", "redundant"]), st.data())
def test_certify_matches_the_ambient_scan_whatever_the_witness_spans(case, span, data):
    # the witness's factors span U ("as drawn"), more than U (+x (x) y and
    # -x (x) y appended, x drawn from all of Q^d), or {0} (zero factors); a
    # "redundant" witness shares factors between terms, repeats factor lists
    # and holds parallel, negated and zero factors and zero coefficients,
    # which its caps must survive
    t, witness = case
    d, k = t.dim, t.order
    vector = st.lists(rationals, min_size=d, max_size=d)
    if span == "wider":
        c, factors = data.draw(rationals.filter(bool)), data.draw(st.lists(vector.filter(any), min_size=k, max_size=k))
        witness = Decomposition(d, k, witness.terms + ((c, tuple(map(tuple, factors))), (-c, tuple(map(tuple, factors)))))
    elif span == "zero":
        zero = (Fraction(0),) * d
        witness = Decomposition(d, k, ((Fraction(1), (zero,) * k),) * data.draw(st.integers(0, 2)))
        t = Tensor.zeros(k, d)
    elif span == "redundant":
        t, witness = data.draw(redundant(witness))
    assert_witness_caps_bound_every_flattening(t, witness)
    upper = witness.length
    lower = ambient_certificate(t, upper)
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (lower, upper, "exact" if lower == upper else "bounded")
    assert ranks._witness_core(t, witness)[1] == ranks._core(t)[1]  # the dimension of U, however wide W is


def test_the_witness_core_reads_every_pivot_of_the_witness_span():
    # a^(x)3 + b^(x)3 with a = (1, 1, 1), b = (1, 2, 3): W is the plane they
    # span, with pivots at coordinates 1 and 2; the slice at coordinate 1 alone has rank 1
    a, b = [1, 1, 1], [1, 2, 3]
    witness = Decomposition.of(3, 3, [(1, [a] * 3), (1, [b] * 3)])
    t = witness.realize()
    nums, dim = ranks._witness_core(t, witness)
    assert dim == 2 and reference_flattening_bound(Tensor.from_entries(3, 2, nums)) == 2
    cert = certify_rank(t, witness)
    assert (cert.lower, cert.upper, cert.status) == (2, 2, "exact")


@st.composite
def independent_increments(draw):
    """m <= d linearly independent rational increments in Q^d and a level k,
    sized so that the ambient reference scan stays small."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, {1: 6, 2: 6, 3: 5, 4: 4}[d]))
    m = draw(st.integers(1, d))
    vector = st.lists(rationals, min_size=d, max_size=d)
    return draw(st.lists(vector, min_size=m, max_size=m).filter(lambda vs: reference_rank(vs) == m)), k


@SETTINGS
@pytest.mark.parametrize("alpha", [0, 1, 2])
@given(independent_increments())
def test_independent_increments_have_the_flattening_bound_of_the_axis_path(alpha, case):
    vs, k = case
    m = len(vs)
    t = s_k_alpha(vs, k, alpha)
    axis = s_k_alpha([[int(i == j) for j in range(m)] for i in range(m)], k, alpha)
    assert flattening_lower_bound(t) == flattening_lower_bound(axis) == ambient_flattening_bound(t.nums, k, t.dim, len(t.nums))
    witness = decompose_s_k_alpha(vs, k, alpha)
    lower = ambient_certificate(t, witness.length)
    cert = ranks._certify_s_k_alpha(vs, k, alpha, witness)
    assert (cert.lower, cert.upper, cert.status) == (lower, witness.length, "exact" if lower == witness.length else "bounded")
    assert cert == certify_rank(t, witness)


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_independent_increments_scan_the_axis_path_at_their_alpha(alpha, monkeypatch):
    # two increments in Q^3 at level 4: the flattenings read S_{4,alpha}(e_1, e_2) in Q^2
    scanned, flattenings = [], ranks._flattenings

    def recorded(nums, k, d, witness=None):
        scanned.append((list(nums), k, d))
        return flattenings(nums, k, d, witness)

    monkeypatch.setattr(ranks, "_flattenings", recorded)
    vs = [[1, 2, 0], [0, -1, 3]]
    cert = ranks._certify_s_k_alpha(vs, 4, alpha, decompose_s_k_alpha(vs, 4, alpha))
    assert scanned == [(list(s_k_alpha([[1, 0], [0, 1]], 4, alpha).nums), 4, 2)]
    assert (cert.lower, cert.upper) == (3, 3)


@pytest.mark.parametrize("vs, k, expected", [
    ([[1], [-1]], 4, (0, 3, "bounded")),  # the axis path e1, e2 would give 3/3 exact
    ([[1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], 4, (3, 13, "bounded")),  # the axis path would give 10/13
])
def test_dependent_increments_fall_back_to_the_witness_span(vs, k, expected):
    t, witness = s_k_alpha(vs, k, 0), decompose_s_k_alpha(vs, k, 0)
    cert = ranks._certify_s_k_alpha(vs, k, 0, witness)
    assert (cert.lower, cert.upper, cert.status) == expected
    assert cert == certify_rank(t, witness) and cert.lower == ambient_certificate(t, witness.length)
