"""Cross-checks of the scaled-integer kernel behind signatures, log/exp, the
Dynkin check and realize. Every expected value comes from a plain Fraction
reference kept in this file, the list kernels that signatures and realize
used before their levels were packed into ints, a value worked out by hand
or the iterated-integral oracle, never from the kernel itself."""

import sys
from array import array
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm
from operator import add, mul

import pytest

from hypothesis import given, settings, strategies as st

from sigtensor import graded
from sigtensor import (
    Decomposition,
    Tensor,
    TruncatedSignature,
    chen_concat,
    dynkin_map,
    exp_log_signature,
    is_lie_element,
    iterated_integral_entry,
    lie_basis,
    lie_bracket,
    log_signature,
    permute_modes,
    pwl_signature,
    tensor_product,
    words_of_length,
)

from references import paths, rationals

SETTINGS = settings(max_examples=40, deadline=None)


def vectors(d):
    return st.lists(rationals, min_size=d, max_size=d)


def ref_product(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Truncated tensor-algebra product on flat Fraction levels 0..K."""
    out = []
    for k in range(len(a)):
        acc = [Fraction(0)] * (len(a[k]))
        for i in range(k + 1):
            left, right = a[i], b[k - i]
            for p, x in enumerate(left):
                for q, y in enumerate(right):
                    acc[p * len(right) + q] += x * y
        out.append(acc)
    return out


def flat_accumulate(terms, dim: int, order: int) -> graded.Level:
    """sum of c * v_1 (x) ... (x) v_k with every term expanded over all
    dim^order entries: the accumulation that graded.accumulate replaced by
    its prefix trie. Each term is an integer scalar times an outer product of
    integer vectors over the lcm of all term denominators."""
    scaled = []
    for coeff, factors in terms:
        ints, scale = [], 1
        for v in factors:
            nums, den = graded.from_fractions(v)
            ints.append(nums)
            scale *= den
        scaled.append((Fraction(coeff, scale), ints))
    den = lcm(*(q.denominator for q, _ in scaled))
    acc = [0] * dim**order
    for q, ints in scaled:
        t = [q.numerator * (den // q.denominator)]
        for w in ints:
            t = graded.outer(t, w)
        acc = list(map(add, acc, t))
    return graded.reduced(acc, den)


def mul_exp(nums: list[list[int]], w: list[int], alpha: int = 0) -> None:
    """In place S <- S (x) exp(v) for list levels in the (k + alpha)! * D^k
    scheme: nums[k] holds (k + alpha)! D^k S_k and w = D v. Level k of the
    product has the numerator sum_i C(k + alpha, k - i) N_i (x) w^(x)(k-i),
    by Horner's rule T = C(k + alpha, k) N_0, then
    T = T (x) w + C(k + alpha, k - i) N_i for i = 1..k, one Python product
    per entry. Levels are updated from the top down."""
    for k in range(len(nums) - 1, 0, -1):
        t = [comb(k + alpha, k) * x for x in nums[0]]
        for i in range(1, k + 1):
            c = comb(k + alpha, k - i)
            n = nums[i] if c == 1 else map(mul, nums[i], repeat(c))
            t = list(map(add, graded.outer(t, w), n))
        nums[k] = t


def list_signature(increments, dim: int, max_level: int, alpha: int = 0) -> list[graded.Level]:
    """The list kernel that graded.signature packed: the first segment gives
    N_k = w^(x)k, and Chen's identity folds in each later one from the
    left by mul_exp."""
    D = lcm(*(x.denominator for u in increments for x in u))
    first, *rest = ([x.numerator * (D // x.denominator) for x in u] for u in increments)
    nums = [[1]]
    for _ in range(max_level):
        nums.append(graded.outer(nums[-1], first))
    for w in rest:
        mul_exp(nums, w, alpha)
    return [(n, factorial(k + alpha) * D**k) for k, n in enumerate(nums)]


def ref_dynkin(t: Tensor) -> Tensor:
    """The bracket recursion D_k(t) = sum_j [D_(k-1)(t[..., j]), e_j]."""
    if t.order == 1:
        return t
    d = t.dim
    out = Tensor.zeros(t.order, d)
    for j in range(1, d + 1):
        inner = ref_dynkin(Tensor(t.order - 1, d, t.entries[j - 1 :: d]))
        out = out + lie_bracket(inner, Tensor.basis_vector(d, j))
    return out


@SETTINGS
@given(paths(), st.integers(1, 4))
def test_pwl_signature_matches_iterated_integrals_on_rational_paths(path, K):
    sig = pwl_signature(path, K)
    assert sig.level(0).entries == (Fraction(1),)
    for k in range(1, K + 1):
        for word in words_of_length(path.dim, k):
            assert sig.level(k)[word.letters] == iterated_integral_entry(path, word)


# zero, negative and rational entries, and some up to 2^40, whose products
# need fields wider than 64 bits
wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 7)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(st.one_of(st.lists(wide_rationals, min_size=d, max_size=d), st.just([Fraction(0)] * d)), min_size=1, max_size=6)
    ),
    st.integers(0, 6),
    st.integers(0, 3),
)
def test_packed_signature_matches_the_list_kernel(increments, K, alpha):
    d = len(increments[0])
    got = graded.signature(increments, d, K, alpha)
    assert [(list(n), den) for n, den in got] == list_signature(increments, d, K, alpha)


def test_one_segment_levels_are_tensor_powers():
    # w = (2, -3): level k is w^(x)k over k!, each level prepending w to the last
    w = [Fraction(2), Fraction(-3)]
    assert graded.signature([w], 2, 3) == [
        ([1], 1),
        ([2, -3], 1),
        ([4, -6, -6, 9], 2),
        ([8, -12, -12, 18, -12, 18, 18, -27], 6),
    ]


@pytest.mark.parametrize("top", [2**63 - 1, 2**63, -(2**63), 2**64 - 1, -(2**64) + 1])
def test_packed_levels_read_back_entries_at_the_width_boundaries(top):
    # a 64-bit signed field holds -2^63..2^63 - 1, and the width comes from
    # |top|: 2^63 - 1 is the largest entry that packs in 64 bits
    assert graded._width(abs(top)) == (64 if abs(top) < 2**63 else 128)
    assert graded.signature([[Fraction(top)]], 1, 1) == [([1], 1), ([top], 1)]
    assert level_of([(Fraction(top), [(Fraction(1),)])], 1, 1) == ([top], 1)
    # the same entry next to others, of both signs, in the fields around it
    assert graded.signature([[Fraction(top), Fraction(-1)]], 2, 1) == [([1], 1), ([top, -1], 1)]
    v = (Fraction(1), Fraction(-1), Fraction(1))
    assert level_of([(Fraction(top), [v])], 3, 1) == ([top, -top, top], 1)


@pytest.mark.parametrize("order, swapped", [("little", [1, 2]), ("big", [1 << 56, 2 << 56])])
def test_little_endian_swaps_the_fields_only_on_a_big_endian_machine(monkeypatch, order, swapped):
    monkeypatch.setattr(sys, "byteorder", order)
    fields = array("Q", [1, 2])
    assert graded.little_endian(fields) is fields
    assert fields.tolist() == swapped


@SETTINGS
@given(paths(), st.integers(1, 4))
def test_exp_of_log_is_identity(path, K):
    sig = pwl_signature(path, K)
    assert exp_log_signature(log_signature(sig)) == sig


@st.composite
def signature_pairs(draw):
    """Two arbitrary tensor-algebra elements; constant terms need not be 1."""
    d = draw(st.integers(1, 3))
    K = draw(st.integers(0, 3))

    def element():
        return [[draw(rationals) for _ in range(d**k)] for k in range(K + 1)]

    return d, element(), element()


@SETTINGS
@given(signature_pairs())
def test_chen_concat_matches_fraction_product(case):
    d, a, b = case
    sa = TruncatedSignature.from_levels([Tensor(k, d, tuple(x)) for k, x in enumerate(a)], d)
    sb = TruncatedSignature.from_levels([Tensor(k, d, tuple(x)) for k, x in enumerate(b)], d)
    got = chen_concat(sa, sb)
    assert [list(t.entries) for t in got.levels] == ref_product(a, b)


@SETTINGS
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(0, 4).flatmap(
                lambda k: st.lists(
                    st.tuples(rationals, st.lists(vectors(d), min_size=k, max_size=k)),
                    max_size=6,
                ).map(lambda terms: (k, terms))
            ),
        )
    )
)
def test_realize_matches_sum_of_elementary_tensors(case):
    d, (k, terms) = case
    dec = Decomposition(d, k, tuple((c, tuple(tuple(v) for v in factors)) for c, factors in terms))
    want = Tensor.zeros(k, d)
    for c, factors in terms:
        want = want + Tensor.elementary(factors, d).scale(c)
    assert dec.realize() == want


def keyed(terms):
    """Terms with each Fraction factor as its key, the form accumulate takes."""
    return [(c, [graded.as_key(*graded.from_fractions(v)) for v in factors]) for c, factors in terms]


def level_of(terms, dim, order):
    nums, den = graded.accumulate(keyed(terms), dim, order)
    return list(nums), den


E1, E2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))


def test_repeated_factor_lists_add_their_coefficients():
    # e1 (x) e2 twice is one trie leaf; with (2e1) (x) e2 / 2, 3 e1 (x) e2 in all
    two_e1 = (Fraction(2), Fraction(0))
    assert level_of([(Fraction(1), [E1, E2]), (Fraction(1, 2), [two_e1, E2]), (Fraction(1), [E1, E2])], 2, 2) == ([0, 3, 0, 0], 1)


def test_factor_denominators_move_into_the_coefficient():
    # (-2, 4) (x) (3/2, 0) / 3: the second factor enters as (3, 0) over 2
    assert level_of([(Fraction(1, 3), [(Fraction(-2), Fraction(4)), (Fraction(3, 2), Fraction(0))])], 2, 2) == ([-1, 0, 2, 0], 1)


def test_the_first_factor_keeps_its_denominator():
    # (1/2, 0) (x) e2: the key of the first factor is ((1, 0), 2)
    assert level_of([(Fraction(1), [(Fraction(1, 2), Fraction(0)), E2])], 2, 2) == ([0, 1, 0, 0], 2)


def test_a_coefficient_keeps_its_denominator():
    assert level_of([(Fraction(1, 3), [E1, E2])], 2, 2) == ([0, 1, 0, 0], 3)


def test_terms_that_differ_only_in_their_first_factor_stay_apart():
    # e1 (x) e2 + 2 e2 (x) e2
    assert level_of([(Fraction(1), [E1, E2]), (Fraction(2), [E2, E2])], 2, 2) == ([0, 1, 0, 2], 1)


def test_every_leading_factor_reaches_the_root():
    # (1, 2) (x) (3, -1) + (-1, 0) (x) (1/2, 1/2), over the denominator 2
    u, w = (Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1))
    minus_e1, half = (Fraction(-1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))
    assert level_of([(Fraction(1), [u, w]), (Fraction(1), [minus_e1, half])], 2, 2) == ([5, -3, 12, -4], 2)


@st.composite
def term_lists(draw):
    """Terms whose factors come from a small pool, so factor lists share
    prefixes, with parallel copies (some negative), zero vectors and zero
    coefficients; entries are rationals with mixed denominators."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, 5))
    pool = draw(st.lists(vectors(d), min_size=1, max_size=3))
    scales = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(0)])
    factor = st.tuples(st.sampled_from(pool), scales).map(lambda vs: tuple(vs[1] * x for x in vs[0]))
    coeff = st.one_of(st.just(Fraction(0)), rationals)
    terms = draw(st.lists(st.tuples(coeff, st.lists(factor, min_size=k, max_size=k)), max_size=8))
    return d, k, terms


@settings(max_examples=150, deadline=None)
@given(term_lists(), st.data())
def test_accumulate_matches_the_flat_sum_in_any_term_order(case, data):
    d, k, terms = case
    want = flat_accumulate(terms, d, k)
    assert level_of(terms, d, k) == (list(want[0]), want[1])
    shuffled = data.draw(st.permutations(terms))
    assert level_of(shuffled, d, k) == (list(want[0]), want[1])


def test_realize_at_order_3000_folds_without_recursion():
    # dim 1: the factor lists share their first 1500 nodes; 2^2999 + 2^1500 3^1499
    k, half = 3000, 1500
    terms = ((Fraction(1, 2), ((Fraction(2),),) * k), (Fraction(1, 3), ((Fraction(2),),) * half + ((Fraction(-3),),) * half))
    t = Decomposition(1, k, terms).realize()
    assert (list(t.nums), t.den) == flat_accumulate(terms, 1, k) == ([2 ** (k - 1) + 2**half * 3 ** (half - 1)], 1)


def test_dynkin_map_matches_bracket_recursion_on_lie_basis():
    for d in (1, 2, 3):
        for k in range(1, 5):
            for b in lie_basis(d, k):
                assert dynkin_map(b) == ref_dynkin(b) == b.scale(k)
                assert is_lie_element(b)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda d: st.lists(vectors(d), min_size=2, max_size=4)))
def test_dynkin_map_and_lie_check_on_products(vectors):
    t = Tensor.elementary(vectors) + lie_bracket(Tensor.from_vector(vectors[0]), Tensor.elementary(vectors[1:]))
    want = ref_dynkin(t)
    assert dynkin_map(t) == want
    assert is_lie_element(t) == (want == t.scale(t.order))


def test_is_lie_element_rejects_non_lie_products():
    e = [Tensor.basis_vector(3, j) for j in (1, 2, 3)]
    for t in (tensor_product(e[0], e[1]), tensor_product(lie_bracket(e[0], e[1]), e[2])):
        assert ref_dynkin(t) != t.scale(t.order)
        assert not is_lie_element(t)



def test_swap_positions_on_a_hand_example():
    # entry (a, b, c) of 0..7 is 4a + 2b + c; swapping letters 0 and 1 reads
    # (b, a, c), swapping letters 1 and 2 reads (a, c, b)
    nums = tuple(range(8))
    assert graded.swap_positions(nums, 2, 3, 0) == (0, 1, 4, 5, 2, 3, 6, 7)
    assert graded.swap_positions(nums, 2, 3, 1) == (0, 2, 1, 3, 4, 6, 5, 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 6), st.randoms(use_true_random=False))
def test_swap_positions_matches_permute_modes(d, k, rng):
    t = Tensor.from_entries(k, d, [rng.randint(-9, 9) for _ in range(d**k)])
    for pos in range(k - 1):
        perm = list(range(1, k + 1))
        perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
        swapped = graded.swap_positions(t.nums, d, k, pos)
        assert type(swapped) is tuple  # Tensor.nums is a tuple, and a list never equals one
        assert swapped == permute_modes(t, perm).nums
