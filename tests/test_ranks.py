import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil, comb, factorial

import pytest

from sigtensor import (
    Decomposition,
    Path,
    Tensor,
    certify_rank,
    classify_222_complex_rank,
    decompose_s3_alpha,
    decompose_s_k_alpha,
    decompose_second_level,
    decompose_three_segments,
    decompose_two_segments,
    flatten,
    flattening_lower_bound,
    hyperdet_222,
    koszul_lower_bound,
    pwl_signature,
    rank_bound_formula,
    s_k_alpha,
    sig222_from_params,
    tensor_product,
)
from sigtensor import ranks
from sigtensor.symmetry import Sig222Params

E1, E2, E3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]


def axis_sigma3():
    return pwl_signature(Path.from_increments([E1, E2, E3]), 3).level(3)


# -- the S_{k,alpha} family ---------------------------------------------------

def test_s_k_alpha_at_zero_is_signature_level():
    target = axis_sigma3()
    assert s_k_alpha([E1, E2, E3], 3, 0) == target


def test_s_k_alpha_single_vector():
    t = s_k_alpha([[2, 1]], 4, 3)
    expected = Tensor.elementary([[2, 1]] * 4).scale(Fraction(1, factorial(4 + 3)))
    assert t == expected


def test_s_k_alpha_weighted_entry():
    t = s_k_alpha([[1, 0], [0, 1]], 2, 1)
    assert t[(1, 1)] == Fraction(1, 6)  # composition (2,0): 1/(2+1)!


def test_s_k_alpha_rejects_small_k():
    with pytest.raises(ValueError):
        s_k_alpha([[1, 0]], 1, 0)


# -- two segments -------------------------------------------------------------

def test_two_segments_k5_grouping():
    dec = decompose_two_segments([1, 0], [0, 1], 5)
    assert dec.length == 3
    u = (Fraction(1), Fraction(0))
    # the term with four u factors is u^(x)4 / 4! (x) (u/5 + v)
    term = next(t for t in dec.terms if t[1][:4] == (u, u, u, u))
    assert term[0] == Fraction(1, 24)
    assert term[1][4] == (Fraction(1, 5), Fraction(1))


def test_two_segments_k1():
    dec = decompose_two_segments([1, 2], [3, 4], 1)
    assert dec.length == 1
    assert dec.realize() == Tensor.from_vector([4, 6])


@pytest.mark.parametrize("k", range(1, 10))
def test_two_segments_realizes_signature(k):
    u, v = [1, -2], [3, 1]
    dec = decompose_two_segments(u, v, k)
    sig = pwl_signature(Path.from_increments([u, v]), k)
    assert dec.realize() == sig.level(k)
    assert dec.length == ceil((k + 1) / 2)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_two_segments_alpha_weighted(k, alpha):
    u, v = [2, 1], [-1, 1]
    assert decompose_two_segments(u, v, k, alpha).realize() == s_k_alpha([u, v], k, alpha)


def test_two_segments_collinear_collapses():
    dec = decompose_two_segments([1, 0], [0, 0], 6)
    assert dec.length == 1  # zero factors drop out


# -- three segments -----------------------------------------------------------

def test_three_segments_axis_k3():
    dec = decompose_three_segments(E1, E2, E3, 3)
    assert dec.length == 4
    assert dec.realize() == axis_sigma3()


def test_three_segments_k1():
    dec = decompose_three_segments([1, 0, 0], [0, 2, 0], [0, 0, 3], 1)
    assert dec.length == 1
    assert dec.realize() == Tensor.from_vector([1, 2, 3])


@pytest.mark.parametrize("k", range(1, 8))
def test_three_segments_length_and_realization(k):
    u, v, w = [1, 0, 1], [0, 1, -1], [2, 1, 0]
    dec = decompose_three_segments(u, v, w, k)
    sig = pwl_signature(Path.from_increments([u, v, w]), k)
    assert dec.realize() == sig.level(k)
    assert dec.length <= ceil((k + 1) ** 2 / 4)


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_three_segments_alpha_weighted(k, alpha):
    vs = [[1, 0, 1], [0, 1, -1], [2, 1, 0]]
    assert decompose_three_segments(*vs, k, alpha).realize() == s_k_alpha(vs, k, alpha)


def test_three_segments_k4_random_within_bound():
    rng = random.Random(6)
    for _ in range(3):
        vs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        dec = decompose_three_segments(*vs, 4)
        sig = pwl_signature(Path.from_increments(vs, dim=3), 4)
        assert dec.realize() == sig.level(4)
        assert dec.length <= ceil(25 / 4)


# -- second level -------------------------------------------------------------

def test_second_level_two_axes():
    dec = decompose_second_level([[1, 0], [0, 1]])
    t = dec.realize()
    assert t[(1, 1)] == Fraction(1, 2) and t[(1, 2)] == 1 and t[(2, 2)] == Fraction(1, 2)
    assert flatten(t, (1,)).rank == 2


def test_second_level_single_vector():
    dec = decompose_second_level([[3, 1]])
    assert dec.length == 1
    assert dec.realize() == Tensor.elementary([[3, 1], [3, 1]]).scale(Fraction(1, 2))


def test_second_level_dependent_vectors():
    vs = [[1, 0], [0, 1], [1, 1]]
    dec = decompose_second_level(vs)
    t = dec.realize()
    sig = pwl_signature(Path.from_increments(vs, dim=2), 2)
    assert t == sig.level(2)
    assert flatten(t, (1,)).rank == 2
    assert dec.length <= 3


@pytest.mark.parametrize("m", range(1, 6))
def test_second_level_rank_equals_m_for_independent(m):
    vs = [[int(i == j) for j in range(5)] for i in range(m)]
    dec = decompose_second_level(vs)
    sig = pwl_signature(Path.from_increments(vs, dim=5), 2)
    assert dec.realize() == sig.level(2)
    assert dec.length <= m
    assert flatten(sig.level(2), (1,)).rank == m


def test_second_level_terms_on_three_axes():
    # term i's mixed factor is v_i / 2 (v_1 / (2 + alpha)) plus every later
    # vector, the remainder taken out before the term, not after
    e1, e2, e3 = [tuple(map(Fraction, v)) for v in (E1, E2, E3)]
    dec = decompose_second_level([E1, E2, E3], 1)
    assert dec.terms == (
        (Fraction(1, 2), (e1, (Fraction(1, 3), Fraction(1), Fraction(1)))),
        (Fraction(1), (e2, (Fraction(0), Fraction(1, 2), Fraction(1)))),
        (Fraction(1), (e3, (Fraction(0), Fraction(0), Fraction(1, 2)))),
    )


# -- the 2m-2 order-3 grouping ------------------------------------------------

def test_s3_alpha_axis_is_sharp():
    dec = decompose_s3_alpha([E1, E2, E3], 0)
    assert dec.length == 4
    cert = certify_rank(axis_sigma3(), dec)
    assert cert.status == "exact" and cert.upper == 4


def test_s3_alpha_m2_matches_two_segments():
    dec = decompose_s3_alpha([[1, 0], [0, 1]], 0)
    assert dec.length == 2
    assert dec.realize() == s_k_alpha([[1, 0], [0, 1]], 3, 0)


def test_s3_alpha_rejects_single_vector():
    with pytest.raises(ValueError):
        decompose_s3_alpha([[1, 0]], 0)


@pytest.mark.parametrize("alpha", range(0, 4))
@pytest.mark.parametrize("m", range(2, 9))
def test_s3_alpha_grid(m, alpha):
    rng = random.Random(100 * m + alpha)
    vs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(m)]
    dec = decompose_s3_alpha(vs, alpha)
    assert dec.length <= 2 * m - 2
    assert dec.realize() == s_k_alpha(vs, 3, alpha)


def test_s3_alpha_terms_on_four_axes():
    # s = 2: the head sums end at the vector before position i (v_1 weighted
    # 1/(alpha+1)), the tail sums run from the vector after it through v_4
    def vec(*xs):
        return tuple(Fraction(x) for x in xs)

    e = [vec(*(int(i == j) for j in range(4))) for i in range(4)]
    third, half = Fraction(1, 3), Fraction(1, 2)
    dec = decompose_s3_alpha(e, 1)
    assert dec.terms == (
        (Fraction(1, 6), (e[0], e[0], vec(Fraction(1, 4), 1, 1, 1))),
        (half, (e[1], e[1], vec(0, third, 1, 1))),
        (Fraction(1), (vec(half, 0, 0, 0), e[1], vec(0, half, 1, 1))),
        (half, (vec(half, 1, third, 0), e[2], e[2])),
        (half, (vec(half, 1, 1, third), e[3], e[3])),
        (Fraction(1), (vec(half, 1, half, 0), e[2], e[3])),
    )


# -- the general recursion ----------------------------------------------------

def test_s_k_alpha_recursion_k4_m4_basis():
    vs = [[int(i == j) for j in range(4)] for i in range(4)]
    dec = decompose_s_k_alpha(vs, 4, 0)
    assert dec.length <= 13
    sig = pwl_signature(Path.from_increments(vs, dim=4), 4)
    assert dec.realize() == sig.level(4)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_decompose_s_k_alpha_realizes(k, m):
    rng = random.Random(10 * k + m)
    for alpha in (0, 1, 2):
        vs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(m)]
        dec = decompose_s_k_alpha(vs, k, alpha)
        assert dec.realize() == s_k_alpha(vs, k, alpha)


def test_decompose_s_k_alpha_rejects_k1():
    with pytest.raises(ValueError):
        decompose_s_k_alpha([[1, 0]], 1, 0)


def test_a_zero_first_increment_adds_no_term():
    # with v_1 = 0 every term with v_1 in front is zero: the recursion keeps
    # only the tail's terms, and no term has a zero factor
    vs = [[0, 0], [1, 2], [3, 1], [2, 5], [1, 1]]
    dec = decompose_s_k_alpha(vs, 5)
    assert all(any(f) for _, factors in dec.terms for f in factors)
    assert dec.terms == decompose_s_k_alpha(vs[1:], 5).terms
    assert dec.realize() == s_k_alpha(vs, 5, 0)


def test_a_negative_alpha_is_refused_by_every_grouping():
    # the check comes after the order's and before the vectors'
    refused = [
        lambda: s_k_alpha([[1, 0]], 2, -1),
        lambda: decompose_s_k_alpha([[1, 0], [0, 1]], 4, -1),
        lambda: decompose_two_segments([1, 0], [0, 1], 1, -1),
        lambda: decompose_three_segments([1, 0], [0, 1], [1, 1], 3, -1),
        lambda: decompose_second_level([[1, 0], [0, 1]], -1),
        lambda: decompose_second_level([[1, 0]], -1),
        lambda: decompose_s3_alpha([[1, 0], [0, 1]], -1),
        lambda: decompose_s3_alpha([[1, 0]], -1),
        lambda: decompose_second_level([], -1),
    ]
    for build in refused:
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            build()
    with pytest.raises(ValueError, match="k must be >= 1"):
        decompose_two_segments([1, 0], [0, 1], 0, -1)
    with pytest.raises(ValueError, match="k must be >= 2"):
        decompose_s_k_alpha([[1, 0]], 1, -1)


def _part(dec, first):
    """The terms of dec whose first factor passes first, realized."""
    return Decomposition(dec.dim, dec.order, [(c, fs) for c, fs in dec.terms if first(fs[0])]).realize()


def _axes(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def test_the_first_branch_is_not_over_alpha_factorial():
    # on five axes at k = 4 the loop runs for e_1 and e_2; the terms led by e_1
    # are e_1 (x) S_{3,alpha+1}(e_1..e_5), with no 1/alpha! (which is 1 below alpha = 2)
    vs = _axes(5)
    dec = decompose_s_k_alpha(vs, 4, 2)
    assert _part(dec, lambda f: f == (1, 0, 0, 0, 0)) == tensor_product(Tensor.elementary([vs[0]]), s_k_alpha(vs, 3, 3))


def test_every_branch_after_the_first_is_at_weight_one():
    # the terms led by e_2 are e_2 (x) S_{3,1}(e_2..e_5) / alpha!, whatever alpha is
    vs = _axes(5)
    for alpha in (1, 2):
        dec = decompose_s_k_alpha(vs, 4, alpha)
        want = tensor_product(Tensor.elementary([vs[1]]), s_k_alpha(vs[1:], 3, 1)).scale(Fraction(1, factorial(alpha)))
        assert _part(dec, lambda f: f == (0, 1, 0, 0, 0)) == want


def test_the_closing_grouping_after_the_loop_is_at_weight_zero():
    # after the loop the last three vectors close the sum as S_{4,0}(e_3, e_4, e_5) / alpha!,
    # and with no loop (m = 3) as S_{4,alpha}
    vs = _axes(5)
    for alpha in (1, 2):
        dec = decompose_s_k_alpha(vs, 4, alpha)
        want = s_k_alpha(vs[2:], 4, 0).scale(Fraction(1, factorial(alpha)))
        assert _part(dec, lambda f: f[0] == f[1] == 0) == want
        assert decompose_s_k_alpha(vs[2:], 4, alpha).realize() == s_k_alpha(vs[2:], 4, alpha)


# -- the work of a build --------------------------------------------------------

def test_the_recursion_depth_does_not_grow_with_the_segments(tmp_path):
    # the recursion runs on the order only, so a tight recursion limit holds at any m; the
    # 201-sample walk is inside the term guard (39 801 <= 100 000 terms at level 4)
    walk = tmp_path / "walk.csv"
    rng = random.Random(2)
    rows, x = [[0, 0]], [0, 0]
    for _ in range(200):
        x = [a + rng.randint(1, 3) for a in x]
        rows.append(x)
    walk.write_text("".join(f"{a},{b}\n" for a, b in rows))
    script = f"""
import contextlib, io, random, sys
sys.setrecursionlimit(120)
from sigtensor import cli
from sigtensor.ranks import decompose_s_k_alpha, rank_bound_formula
rng = random.Random(1)
dec = decompose_s_k_alpha([[rng.randint(1, 3), rng.randint(1, 3)] for _ in range(200)], 4, 1)
assert len(dec.terms) == rank_bound_formula(4, 200) == 39801, len(dec.terms)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["decompose", "--series", {str(walk)!r}, "--level", "4"])
assert code == 0, code
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ranks.__file__))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]


@pytest.mark.parametrize("d, m, k, alpha", [(4, 40, 4, 0), (4, 80, 4, 0), (4, 8, 6, 1), (4, 12, 7, 0), (6, 10, 8, 0)])
def test_each_term_is_joined_once_per_order(monkeypatch, d, m, k, alpha):
    # every witness of the build passes Decomposition._unchecked once; a term is in at most
    # k - 2 of them, one per order of the loop and one for its closed-form grouping
    received = []
    unchecked = ranks.Decomposition._unchecked

    def spy(dim, order, keyed):
        keyed = list(keyed)
        received.append(len(keyed))
        return unchecked(dim, order, keyed)

    monkeypatch.setattr(ranks.Decomposition, "_unchecked", staticmethod(spy))
    rng = random.Random(m + k)
    dec = decompose_s_k_alpha([[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)], k, alpha)
    assert sum(received) <= (k - 2) * dec.length


@pytest.mark.parametrize("m", [100, 200])
@pytest.mark.parametrize("k, pairs_per_segment", [(2, 6), (3, 10)])
def test_groupings_sum_a_linear_number_of_pairs(monkeypatch, k, pairs_per_segment, m):
    # every mixed factor is one _mix of at most two pairs over running sums;
    # re-summing each run of increments would take about m^2 / 2 pairs
    summed = []
    mix = ranks._mix
    monkeypatch.setattr(ranks, "_mix", lambda d, *pairs: summed.append(len(pairs)) or mix(d, *pairs))
    rng = random.Random(m)
    decompose_s_k_alpha([[rng.randint(1, 3) for _ in range(4)] for _ in range(m)], k)
    assert sum(summed) <= pairs_per_segment * m


def test_the_recursion_normalizes_each_term_once(monkeypatch):
    # ranks._cleaned runs in the closed-form groupings only; the recursion
    # joins their keyed terms as they are
    received = []
    cleaned = ranks._cleaned

    def spy(dim, order, terms):
        terms = list(terms)
        received.append(len(terms))
        return cleaned(dim, order, terms)

    monkeypatch.setattr(ranks, "_cleaned", spy)
    rng = random.Random(6)
    dec = decompose_s_k_alpha([[rng.randint(1, 9) for _ in range(4)] for _ in range(6)], 6)
    assert sum(received) == len(dec.terms) == rank_bound_formula(6, 6)


# -- the bound formula ----------------------------------------------------------

def test_rank_bound_formula_small_cases():
    assert rank_bound_formula(4, 4) == 13
    assert rank_bound_formula(3, 5) == 8
    for k in range(2, 10):
        assert rank_bound_formula(k, 2) == ceil((k + 1) / 2)
        assert rank_bound_formula(k, 3) == ceil((k + 1) ** 2 / 4)
    for m in range(4, 11):
        assert rank_bound_formula(3, m) == 2 * m - 2
        assert rank_bound_formula(2, m) == m


def test_rank_bound_matches_recursion_lengths():
    # the recursion's term count telescopes to the closed formula for
    # generic vectors, so equality (not just <=) holds on this grid
    rng = random.Random(44)
    for k in range(3, 6):
        for m in range(4, 8):
            vs = [[rng.randint(1, 9) for _ in range(3)] for _ in range(m)]
            dec = decompose_s_k_alpha(vs, k, 0)
            assert dec.length == rank_bound_formula(k, m)


def _nested_sum(k, m):
    # sum over 4 <= a_{k-3} <= ... <= a_1 <= m of (a_{k-3} - 1)
    depth = k - 3

    def rec(level, upper):
        if level == depth:
            return upper - 1
        return sum(rec(level + 1, a) for a in range(4, upper + 1))

    return sum(rec(1, a) for a in range(4, m + 1)) if depth >= 1 else 0


@pytest.mark.parametrize("m", range(4, 10))
@pytest.mark.parametrize("k", range(4, 10))
def test_hockey_stick_identity(k, m):
    assert _nested_sum(k, m) == comb(m + k - 6, k - 2) + 2 * comb(m + k - 7, k - 3)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_rank_bound_leading_term(k):
    # (k-2)-th finite difference of a degree-(k-2) polynomial with leading
    # coefficient 2/(k-2)! is exactly 2
    values = [rank_bound_formula(k, m) for m in range(4, 4 + k + 2)]
    diff = values
    for _ in range(k - 2):
        diff = [b - a for a, b in zip(diff, diff[1:])]
    assert all(x == 2 for x in diff)
    assert all(x == 0 for x in [b - a for a, b in zip(diff, diff[1:])])


# -- lower bounds and certificates ---------------------------------------------

def test_flattening_lower_bound_examples():
    sig5 = pwl_signature(Path.from_increments([[1, 0], [0, 1]]), 5)
    assert flattening_lower_bound(sig5.level(5)) == 3
    assert flattening_lower_bound(Tensor.elementary([[1, 2], [0, 1], [1, 1]])) == 1
    assert flattening_lower_bound(axis_sigma3()) == 3


def test_flattening_lower_bound_high_order_fallback():
    sig = pwl_signature(Path.from_increments([[1, 0], [0, 1]]), 9)
    assert flattening_lower_bound(sig.level(9)) == 5
    assert flattening_lower_bound(sig.level(8)) == 5


def test_koszul_lower_bound_examples():
    assert koszul_lower_bound(axis_sigma3()) == 4
    assert koszul_lower_bound(Tensor.elementary([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) <= 1
    assert koszul_lower_bound(Tensor.zeros(3, 3)) == 0


def test_certify_rank_axis_exact_four():
    dec = decompose_three_segments(E1, E2, E3, 3)
    cert = certify_rank(axis_sigma3(), dec)
    assert (cert.lower, cert.upper, cert.status) == (4, 4, "exact")


@pytest.mark.parametrize("k", range(2, 10))
def test_certify_two_segments_exact(k):
    sig = pwl_signature(Path.from_increments([[1, 0], [0, 1]]), k)
    dec = decompose_two_segments([1, 0], [0, 1], k)
    cert = certify_rank(sig.level(k), dec)
    assert cert.status == "exact"
    assert cert.upper == ceil((k + 1) / 2)


def test_certify_generic_four_segments_records_gap():
    rng = random.Random(77)
    vs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    sig = pwl_signature(Path.from_increments(vs, dim=4), 4)
    dec = decompose_s_k_alpha(vs, 4, 0)
    cert = certify_rank(sig.level(4), dec)
    assert cert.lower <= cert.upper
    assert cert.status in ("exact", "bounded")


def test_certify_rejects_bad_witness():
    dec = decompose_two_segments([1, 0], [0, 1], 3)
    with pytest.raises(ValueError, match="invalid witness"):
        certify_rank(axis_sigma3().scale(0) + pwl_signature(Path.from_increments([[1, 1, 1]]), 3).level(3), dec)


def test_flattening_bound_below_certified_upper():
    rng = random.Random(21)
    for _ in range(5):
        m = rng.randint(2, 4)
        k = rng.randint(2, 4)
        vs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(m)]
        dec = decompose_s_k_alpha(vs, k, 0)
        t = dec.realize()
        if t.order >= 2 and not t.is_zero:
            assert flattening_lower_bound(t) <= dec.length


# -- 2x2x2 classification --------------------------------------------------------

def test_hyperdet_of_partially_symmetric_params_is_zero():
    t = sig222_from_params(Sig222Params.of(6, -6, 1, 1, 1))
    assert hyperdet_222(t) == 0


def test_hyperdet_of_elementary_is_zero():
    assert hyperdet_222(Tensor.elementary([[1, 2], [3, 1], [1, 1]])) == 0


def test_hyperdet_param_spot_checks():
    assert hyperdet_222(sig222_from_params(Sig222Params.of(1, 1, 1, 0, 0))) == 0
    assert hyperdet_222(sig222_from_params(Sig222Params.of(0, 0, 0, 1, 1))) == 0


def test_hyperdet_closed_form_on_family():
    rng = random.Random(55)
    for _ in range(200):
        x, y, a, b, c = (Fraction(rng.randint(-9, 9)) for _ in range(5))
        t = sig222_from_params(Sig222Params.of(x, y, a, b, c))
        closed = Fraction(-1, 3) * (y * b + x * c) ** 2 * (4 * y * b + 4 * x * c - 3 * a * a)
        assert hyperdet_222(t) == closed


def test_classify_partially_symmetric_is_three():
    t = sig222_from_params(Sig222Params.of(6, -6, 1, 1, 1))
    assert classify_222_complex_rank(t) == 3
    for mode in (1, 2, 3):
        assert flatten(t, (mode,)).rank == 2


def test_classify_pure_lie3_element():
    # b = c = 1, x = y = a = 0: complex rank 3 but not partially symmetric
    t = sig222_from_params(Sig222Params.of(0, 0, 0, 1, 1))
    assert classify_222_complex_rank(t) == 3
    from sigtensor import symmetry_report

    assert "first_k_minus_1" not in symmetry_report(t).partial


def test_classify_rank_one_and_zero():
    assert classify_222_complex_rank(Tensor.elementary([[1, 2], [1, 2], [1, 2]])) == 1
    assert classify_222_complex_rank(Tensor.zeros(3, 2)) == 0


def test_classify_generic_rank_two():
    t = Tensor.elementary([[1, 0], [1, 0], [1, 0]]) + Tensor.elementary([[0, 1], [0, 1], [0, 1]])
    assert classify_222_complex_rank(t) == 2


@pytest.mark.parametrize("dim, order", [(0, 2), (-1, 2), (2, -1)])
def test_decomposition_rejects_out_of_range_dim_or_order(dim, order):
    with pytest.raises(ValueError, match="needs dim >= 1 and order >= 0"):
        Decomposition(dim, order, ())


def test_decomposition_of_order_zero_is_allowed():
    assert Decomposition(1, 0, ((Fraction(2), ()),)).length == 1


def test_decomposition_round_trip_json():
    from sigtensor.serialize import decomposition_from_json, decomposition_to_json

    dec = decompose_three_segments(E1, E2, E3, 3)
    assert decomposition_from_json(decomposition_to_json(dec)) == dec


# -- monomial accounting --------------------------------------------------------

@pytest.mark.parametrize(
    "builder,k,m,alpha",
    [
        (lambda vs, a: decompose_two_segments(vs[0], vs[1], 4, a), 4, 2, 0),
        (lambda vs, a: decompose_two_segments(vs[0], vs[1], 5, a), 5, 2, 2),
        (lambda vs, a: decompose_three_segments(*vs, 4, a), 4, 3, 0),
        (lambda vs, a: decompose_three_segments(*vs, 5, a), 5, 3, 1),
        (lambda vs, a: decompose_second_level(vs, a), 2, 4, 1),
        (lambda vs, a: decompose_s3_alpha(vs, a), 3, 5, 0),
        (lambda vs, a: decompose_s3_alpha(vs, a), 3, 6, 2),
        (lambda vs, a: decompose_s_k_alpha(vs, 4, a), 4, 5, 0),
    ],
)
def test_monomial_accounting(builder, k, m, alpha):
    # with v_i = e_i the nonzero entries of each term are its monomials:
    # terms must cover disjoint sets of words whose union has size
    # C(m+k-1, k), one word per degree-k monomial in m ordered variables
    vs = [[int(i == j) for j in range(m)] for i in range(m)]
    dec = builder(vs, alpha)
    assert dec.realize() == s_k_alpha(vs, k, alpha)
    covered = set()
    for coeff, factors in dec.terms:
        single = Decomposition.of(m, k, [(coeff, factors)]).realize()
        support = {idx for idx in single.indices() if single[idx] != 0}
        assert covered.isdisjoint(support)
        covered |= support
    assert len(covered) == comb(m + k - 1, k)


def test_certificate_invariant_rejects_inconsistency():
    from sigtensor import RankCertificate

    with pytest.raises(ValueError):
        RankCertificate(lower=3, upper=2, witness=None, status="bounded")
    with pytest.raises(ValueError):
        RankCertificate(lower=2, upper=2, witness=None, status="exact")
