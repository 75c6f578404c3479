"""The closed-form rank decompositions against the per-parity groupings
they replaced, kept here unchanged as references: every constructor and the
recursion built on them must give the same terms in the same order, with
equal strings for every coefficient and factor entry. Zero and parallel
vectors make both versions drop the same identically-zero terms."""

from fractions import Fraction
from math import ceil, factorial
from typing import Sequence

from hypothesis import given, settings, strategies as st

from sigtensor import (
    decompose_s3_alpha,
    decompose_s_k_alpha,
    decompose_second_level,
    decompose_three_segments,
    decompose_two_segments,
)
from sigtensor.linalg import Vector
from sigtensor.ranks import Decomposition, TermList, _vectors

SETTINGS = settings(max_examples=60, deadline=None)


def _vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def _vec_add(*vectors: Vector) -> Vector:
    return tuple(sum(col) for col in zip(*vectors))


def ref_decompose_two_segments(u: Sequence, v: Sequence, k: int, alpha: int = 0) -> Decomposition:
    """Pair consecutive binomial terms of S_{k,alpha}(u, v) so that the
    length is ceil((k+1)/2); at alpha = 0 this realizes the level-k
    signature of the two-segment path exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    uu, vv = _vectors([u, v])
    d = len(uu)
    terms: TermList = []
    if k % 2 == 0:
        terms.append((Fraction(1, factorial(alpha) * factorial(k)), [vv] * k))
        js = range(1, k, 2)
    else:
        js = range(0, k, 2)
    for j in js:
        coeff = Fraction(1, factorial(j + alpha) * factorial(k - j - 1))
        mixed = _vec_add(_vec_scale(Fraction(1, j + 1 + alpha), uu), _vec_scale(Fraction(1, k - j), vv))
        terms.append((coeff, [uu] * j + [mixed] + [vv] * (k - j - 1)))
    return Decomposition.of(d, k, terms)


def ref_decompose_three_segments(u: Sequence, v: Sequence, w: Sequence, k: int, alpha: int = 0) -> Decomposition:
    """Group the trinomial terms of S_{k,alpha}(u, v, w) into at most
    ceil((k+1)^2/4) elementary tensors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    uu, vv, ww = _vectors([u, v, w])
    d = len(uu)
    beta = Fraction(1, factorial(alpha))
    terms: TermList = []
    if k % 2 == 1:
        s = (k - 1) // 2
        for i in range(0, s + 1):
            coeff = Fraction(1, factorial(2 * i + alpha) * factorial(2 * (s - i)))
            mixed = _vec_add(
                _vec_scale(Fraction(1, 2 * i + 1 + alpha), uu),
                vv,
                _vec_scale(Fraction(1, 2 * (s - i) + 1), ww),
            )
            terms.append((coeff, [uu] * (2 * i) + [mixed] + [ww] * (2 * (s - i))))
        for i in range(0, s):
            for j in range(1, 2 * (s - i)):
                coeff = Fraction(1, factorial(j + alpha) * factorial(2 * (s - i) - j) * factorial(2 * i))
                mixed = _vec_add(
                    _vec_scale(Fraction(1, 2 * (s - i) - j + 1), vv),
                    _vec_scale(Fraction(1, 2 * i + 1), ww),
                )
                terms.append((coeff, [uu] * j + [vv] * (2 * (s - i) - j) + [mixed] + [ww] * (2 * i)))
        for i in range(1, s + 1):
            coeff = beta * Fraction(1, factorial(2 * i) * factorial(2 * (s - i)))
            mixed = _vec_add(
                _vec_scale(Fraction(1, 2 * i + 1), vv),
                _vec_scale(Fraction(1, 2 * (s - i) + 1), ww),
            )
            terms.append((coeff, [vv] * (2 * i) + [mixed] + [ww] * (2 * (s - i))))
    else:
        s = k // 2
        for i in range(0, s):
            coeff = Fraction(1, factorial(2 * i + 1 + alpha) * factorial(2 * (s - i - 1)))
            mixed = _vec_add(
                _vec_scale(Fraction(1, 2 * i + 2 + alpha), uu),
                vv,
                _vec_scale(Fraction(1, 2 * (s - i - 1) + 1), ww),
            )
            terms.append((coeff, [uu] * (2 * i + 1) + [mixed] + [ww] * (2 * (s - i - 1))))
        for i in range(0, s - 1):
            for j in range(1, 2 * (s - i) - 1):
                coeff = Fraction(1, factorial(j + alpha) * factorial(2 * (s - i) - j - 1) * factorial(2 * i))
                mixed = _vec_add(
                    _vec_scale(Fraction(1, 2 * (s - i) - j), vv),
                    _vec_scale(Fraction(1, 2 * i + 1), ww),
                )
                terms.append((coeff, [uu] * j + [vv] * (2 * (s - i) - j - 1) + [mixed] + [ww] * (2 * i)))
        for i in range(0, s):
            coeff = beta * Fraction(1, factorial(2 * i + 1) * factorial(2 * (s - i - 1)))
            mixed = _vec_add(
                _vec_scale(Fraction(1, 2 * i + 2), vv),
                _vec_scale(Fraction(1, 2 * (s - i) - 1), ww),
            )
            terms.append((coeff, [vv] * (2 * i + 1) + [mixed] + [ww] * (2 * (s - i - 1))))
        terms.append((beta * Fraction(1, factorial(k)), [ww] * k))
    return Decomposition.of(d, k, terms)


def ref_decompose_second_level(vs: Sequence[Sequence], alpha: int = 0) -> Decomposition:
    """Row-by-row grouping of S_{2,alpha}: term i covers every monomial
    v_i (x) v_j with j >= i, so the length is at most m."""
    vecs = _vectors(vs)
    d = len(vecs[0])
    m = len(vecs)
    terms: TermList = []
    for i in range(m):
        if i == 0:
            coeff = Fraction(1, factorial(1 + alpha))
            head = _vec_scale(Fraction(1, 2 + alpha), vecs[0])
        else:
            coeff = Fraction(1, factorial(alpha))
            head = _vec_scale(Fraction(1, 2), vecs[i])
        mixed = _vec_add(head, *(vecs[j] for j in range(i + 1, m)))
        terms.append((coeff, [vecs[i], mixed]))
    return Decomposition.of(d, 2, terms)


def ref_decompose_s3_alpha(vs: Sequence[Sequence], alpha: int = 0) -> Decomposition:
    """The 2m-2 term grouping of S_{3,alpha}(v_1, ..., v_m), split at
    s = ceil(m/2): squares of early vectors lead, squares of late vectors
    trail, and mixed middles cover the rest."""
    vecs = _vectors(vs)
    m = len(vecs)
    if m < 2:
        raise ValueError("need at least two vectors")
    d = len(vecs[0])
    s = ceil(m / 2)
    beta = Fraction(1, factorial(alpha))
    gamma1 = Fraction(1, alpha + 1)
    terms: TermList = []
    v = vecs  # 0-based: v[0] is the alpha-weighted first vector

    def span(lo: int, hi: int, head: Vector | None = None) -> Vector:
        parts = ([head] if head is not None else []) + [v[j] for j in range(lo, hi)]
        if not parts:
            return tuple(Fraction(0) for _ in range(d))
        return _vec_add(*parts)

    # leading squares: v1^(x)2 covers every monomial with v1 twice
    mixed = span(1, m, head=_vec_scale(Fraction(1, 3 + alpha), v[0]))
    terms.append((Fraction(1, factorial(2 + alpha)), [v[0], v[0], mixed]))
    # squares of v_i for 2 <= i <= s
    for i in range(1, s):
        mixed = span(i + 1, m, head=_vec_scale(Fraction(1, 3), v[i]))
        terms.append((beta * Fraction(1, 2), [v[i], v[i], mixed]))
    # middles at position i for 2 <= i <= s
    for i in range(1, s):
        left = span(1, i, head=_vec_scale(gamma1, v[0]))
        right = span(i + 1, m, head=_vec_scale(Fraction(1, 2), v[i]))
        terms.append((beta, [left, v[i], right]))
    # trailing squares: v_i^(x)2 for s+1 <= i <= m
    for i in range(s, m):
        left = span(1, i, head=_vec_scale(gamma1, v[0]))
        left = _vec_add(left, _vec_scale(Fraction(1, 3), v[i]))
        terms.append((beta * Fraction(1, 2), [left, v[i], v[i]]))
    # middles at position i for s+1 <= i <= m-1
    for i in range(s, m - 1):
        left = span(1, i, head=_vec_scale(gamma1, v[0]))
        left = _vec_add(left, _vec_scale(Fraction(1, 2), v[i]))
        right = span(i + 1, m)
        terms.append((beta, [left, v[i], right]))
    return Decomposition.of(d, 3, terms)


def ref_decompose_s_k_alpha(vs: Sequence[Sequence], k: int, alpha: int = 0) -> Decomposition:
    """Recursive construction whose length matches rank_bound_formula: strip
    v_1 into an order-(k-1) problem with weight alpha+1, and recurse on the
    tail at weight 0; bases are the closed-form groupings above."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    vecs = _vectors(vs)
    m = len(vecs)
    d = len(vecs[0])
    if m == 1:
        return Decomposition.of(d, k, [(Fraction(1, factorial(k + alpha)), [vecs[0]] * k)])
    if k == 2:
        return ref_decompose_second_level(vecs, alpha)
    if k == 3:
        return ref_decompose_s3_alpha(vecs, alpha)
    if m == 2:
        return ref_decompose_two_segments(vecs[0], vecs[1], k, alpha)
    if m == 3:
        return ref_decompose_three_segments(vecs[0], vecs[1], vecs[2], k, alpha)
    stripped = ref_decompose_s_k_alpha(vecs, k - 1, alpha + 1)
    tail = ref_decompose_s_k_alpha(vecs[1:], k, 0)
    beta = Fraction(1, factorial(alpha))
    terms = [(coeff, [vecs[0]] + list(factors)) for coeff, factors in stripped.terms]
    terms += [(beta * coeff, list(factors)) for coeff, factors in tail.terms]
    return Decomposition.of(d, k, terms)


def _strings(dec: Decomposition):
    return [(str(c), [[str(x) for x in f] for f in fs]) for c, fs in dec.terms]


@st.composite
def vector_lists(draw, m_min=1, m_max=6):
    """m vectors in dimension 1..3; some are zero, some parallel to an
    earlier one."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(m_min, m_max))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    vs = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "free", "zero", "parallel"]))
        if kind == "zero":
            vs.append([Fraction(0)] * d)
        elif kind == "parallel" and vs:
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
            vs.append([c * x for x in draw(st.sampled_from(vs))])
        else:
            vs.append([draw(entry) for _ in range(d)])
    return vs


alphas = st.integers(0, 4)


@SETTINGS
@given(vector_lists(2, 2), st.integers(1, 12), alphas)
def test_two_segments_match_the_reference(vs, k, alpha):
    assert _strings(decompose_two_segments(*vs, k, alpha)) == _strings(ref_decompose_two_segments(*vs, k, alpha))


@SETTINGS
@given(vector_lists(3, 3), st.integers(1, 12), alphas)
def test_three_segments_match_the_reference(vs, k, alpha):
    assert _strings(decompose_three_segments(*vs, k, alpha)) == _strings(ref_decompose_three_segments(*vs, k, alpha))


def test_three_segments_cover_both_parities():
    # odd k >= 5 and even k both run every loop of the grouping
    vs = [[1, 2], [Fraction(-1, 2), 3], [0, Fraction(5, 3)]]
    for k in range(1, 13):
        for alpha in range(5):
            assert _strings(decompose_three_segments(*vs, k, alpha)) == _strings(ref_decompose_three_segments(*vs, k, alpha))


@SETTINGS
@given(vector_lists(m_max=12), alphas)
def test_second_level_matches_the_reference(vs, alpha):
    assert _strings(decompose_second_level(vs, alpha)) == _strings(ref_decompose_second_level(vs, alpha))


@SETTINGS
@given(vector_lists(2, 12), alphas)
def test_s3_alpha_matches_the_reference(vs, alpha):
    assert _strings(decompose_s3_alpha(vs, alpha)) == _strings(ref_decompose_s3_alpha(vs, alpha))


@settings(max_examples=40, deadline=None)
@given(vector_lists(), st.integers(2, 12), alphas)
def test_s_k_alpha_matches_the_reference(vs, k, alpha):
    assert _strings(decompose_s_k_alpha(vs, k, alpha)) == _strings(ref_decompose_s_k_alpha(vs, k, alpha))


@settings(max_examples=40, deadline=None)
@given(vector_lists(7, 12), st.integers(4, 5), alphas)
def test_s_k_alpha_matches_the_reference_on_long_series(vs, k, alpha):
    # m >= 7 runs the loop over the first factor at least four times at each order
    assert _strings(decompose_s_k_alpha(vs, k, alpha)) == _strings(ref_decompose_s_k_alpha(vs, k, alpha))
