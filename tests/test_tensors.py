import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from sigtensor import (
    Path,
    Tensor,
    flatten,
    flattening_lower_bound,
    gl_act,
    koszul_flatten,
    matrix_rank,
    permute_modes,
    pwl_signature,
    tensor_product,
    unflatten,
)

from references import reference_rank

SETTINGS = settings(max_examples=60, deadline=None)


def basis(d, *letters):
    return Tensor.elementary([[int(j == i) for j in range(1, d + 1)] for i in letters], d)


def test_tensor_product_of_basis_vectors():
    t = tensor_product(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    assert t.order == 2 and t.dim == 2
    assert t[(1, 2)] == 1
    assert sum(1 for x in t.entries if x != 0) == 1


def test_tensor_product_unit():
    t = Tensor.from_entries(2, 2, [1, 2, 3, 4])
    assert tensor_product(Tensor.scalar(1, 2), t) == t
    assert tensor_product(t, Tensor.scalar(1, 2)) == t


def test_tensor_product_bilinearity():
    e1 = Tensor.basis_vector(2, 1)
    e2 = Tensor.basis_vector(2, 2)
    left = tensor_product(e1 + e2, e1)
    assert left == tensor_product(e1, e1) + tensor_product(e2, e1)


def test_tensor_product_dim_mismatch():
    with pytest.raises(ValueError):
        tensor_product(Tensor.basis_vector(2, 1), Tensor.basis_vector(3, 1))


def test_flatten_odd_even_two_segment_level5():
    sig = pwl_signature(Path.from_increments([[1, 0], [0, 1]]), 5)
    f = flatten(sig.level(5), rows=(1, 3, 5))
    assert len(f.matrix) == 8 and len(f.matrix[0]) == 4
    assert matrix_rank(f.matrix) == 3


def test_flatten_rank_one_tensor_any_split():
    t = Tensor.elementary([[1, 2], [3, -1], [0, 5]])
    for rows in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        assert flatten(t, rows).rank == 1


def test_flatten_rejects_empty_and_full():
    t = Tensor.zeros(3, 2)
    with pytest.raises(ValueError):
        flatten(t, ())
    with pytest.raises(ValueError):
        flatten(t, (1, 2, 3))


def test_flatten_rank_matches_independent_elimination():
    rng = random.Random(11)
    for _ in range(10):
        t = Tensor.from_entries(4, 2, [rng.randint(-4, 4) for _ in range(16)])
        f = flatten(t, (1, 2))
        assert matrix_rank(f.matrix) == reference_rank(f.matrix)


def test_flatten_merge_round_trip():
    rng = random.Random(5)
    t = Tensor.from_entries(4, 3, [rng.randint(-3, 3) for _ in range(81)])
    for rows in [(1,), (2, 4), (1, 3), (1, 2, 3)]:
        assert unflatten(flatten(t, rows), t.dim) == t


def test_gl_act_identity_and_permutation():
    t = Tensor.from_entries(2, 2, [1, 2, 3, 4])
    eye = [[1, 0], [0, 1]]
    assert gl_act(eye, t) == t
    swap = [[0, 1], [1, 0]]
    e12 = tensor_product(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    e21 = tensor_product(Tensor.basis_vector(2, 2), Tensor.basis_vector(2, 1))
    assert gl_act(swap, e12) == e21


def test_gl_act_rejects_singular():
    t = Tensor.zeros(1, 2)
    with pytest.raises(ValueError):
        gl_act([[1, 1], [2, 2]], t)


@pytest.mark.parametrize("m", [
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]],
    [["2/3", "-1/5"], [0, 0]],
    [[Fraction(1, 7), 0], [Fraction(-2, 7), 0]],
])
def test_gl_act_rejects_singular_matrices_with_fractional_entries(m):
    for t in (Tensor.zeros(1, 2), Tensor.from_entries(2, 2, ["1/2", 3, "-2/5", 1])):
        with pytest.raises(ValueError, match="^matrix is singular; the action requires GL$"):
            gl_act(m, t)


def test_gl_act_composition():
    rng = random.Random(3)
    t = Tensor.from_entries(3, 2, [rng.randint(-3, 3) for _ in range(8)])
    m1 = [[1, 2], [0, 1]]
    m2 = [[1, 0], [3, 1]]
    product = [[sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert gl_act(m1, gl_act(m2, t)) == gl_act(product, t)


def test_gl_act_diagonal_preserves_flattening_bound():
    sig = pwl_signature(Path.from_increments([[1, 0], [0, 1]]), 5)
    t = sig.level(5)
    scaled = gl_act([[2, 0], [0, Fraction(1, 3)]], t)
    assert flattening_lower_bound(scaled) == flattening_lower_bound(t)


def test_permute_modes_identity_swap_involution():
    v = Tensor.from_vector([1, 2])
    w = Tensor.from_vector([3, 5])
    vw = tensor_product(v, w)
    assert permute_modes(vw, (1, 2)) == vw
    assert permute_modes(vw, (2, 1)) == tensor_product(w, v)
    assert permute_modes(permute_modes(vw, (2, 1)), (2, 1)) == vw


def test_permute_modes_composition():
    rng = random.Random(9)
    t = Tensor.from_entries(3, 2, [rng.randint(-3, 3) for _ in range(8)])
    tau = (2, 3, 1)
    rho = (3, 1, 2)
    # acting by tau then rho equals acting by the composite j -> tau[rho[j]]
    composite = tuple(tau[rho[j] - 1] for j in range(3))
    assert permute_modes(permute_modes(t, tau), rho) == permute_modes(t, composite)


def test_permute_modes_arity_mismatch():
    t = Tensor.zeros(3, 2)
    with pytest.raises(ValueError):
        permute_modes(t, (1, 2))
    with pytest.raises(ValueError):
        permute_modes(t, (1, 1, 2))


def test_koszul_axis_path_rank_seven():
    sig = pwl_signature(Path.from_increments([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
    t = sig.level(3)
    for pivot in (1, 2, 3):
        m = koszul_flatten(t, pivot)
        assert len(m) == 9 and len(m[0]) == 9
        assert matrix_rank(m) == 7


def test_koszul_elementary_tensor_rank_at_most_two():
    t = Tensor.elementary([[1, 2, 0], [0, 1, 1], [1, 1, 1]])
    assert matrix_rank(koszul_flatten(t, 1)) <= 2


def test_koszul_zero_tensor():
    m = koszul_flatten(Tensor.zeros(3, 3), 2)
    assert all(x == 0 for row in m for x in row)


def test_koszul_rejects_wrong_order():
    with pytest.raises(ValueError):
        koszul_flatten(Tensor.zeros(2, 3), 1)


def test_json_wire_format():
    from sigtensor.serialize import tensor_from_json, tensor_to_json

    t = Tensor.from_entries(2, 2, [Fraction(1, 2), 0, 3, Fraction(-7, 3)])
    blob = tensor_to_json(t)
    assert blob["entries"] == ["1/2", "0", "3", "-7/3"]
    assert tensor_from_json(blob) == t


def test_gl_act_general_invertible_preserves_flattening_bound():
    rng = random.Random(13)
    m = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]  # determinant 3
    for _ in range(3):
        t = Tensor.from_entries(4, 3, [rng.randint(-2, 2) for _ in range(81)])
        assert flattening_lower_bound(gl_act(m, t)) == flattening_lower_bound(t)


# -- the integer representation, against Fraction references ------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def entry_lists(draw, order=None, dim=None):
    """(order, dim, entries) with d <= 3, order <= 3: rational, all-integer or zero."""
    k = draw(st.integers(0, 3)) if order is None else order
    d = draw(st.integers(1, 3)) if dim is None else dim
    values = draw(st.sampled_from([rationals, st.integers(-5, 5).map(Fraction), st.just(Fraction(0))]))
    return k, d, draw(st.lists(values, min_size=d**k, max_size=d**k))


@st.composite
def same_shape_pairs(draw):
    k, d, a = draw(entry_lists())
    return k, d, a, draw(entry_lists(k, d))[2]


def ref_permute_modes(entries, k, d, perm):
    inv = [0] * k
    for j, p in enumerate(perm):
        inv[p - 1] = j
    out = [Fraction(0)] * len(entries)
    for index in itertools.product(range(1, d + 1), repeat=k):
        src = tuple(index[inv[j]] for j in range(k))
        off = s_off = 0
        for i, s in zip(index, src):
            off, s_off = off * d + (i - 1), s_off * d + (s - 1)
        out[off] = entries[s_off]
    return out


def ref_gl_act(m, entries, k, d):
    for mode in range(k):
        stride = d ** (k - 1 - mode)
        new = list(entries)
        for base in range(0, len(entries), stride * d):
            for off in range(stride):
                col = [entries[base + i * stride + off] for i in range(d)]
                for r in range(d):
                    new[base + r * stride + off] = sum((m[r][i] * col[i] for i in range(d)), Fraction(0))
        entries = new
    return list(entries)


def ref_koszul_flatten(t, pivot_mode):
    """The per-entry loop over multi-indices that koszul_flatten replaced."""
    d = t.dim
    v_mode, w_mode = [m for m in (1, 2, 3) if m != pivot_mode]
    pairs = [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)]
    pair_pos = {p: j for j, p in enumerate(pairs)}
    grid = [[Fraction(0)] * (d * len(pairs)) for _ in range(d * d)]
    entry = [0, 0, 0]
    for u in range(1, d + 1):
        for w in range(1, d + 1):
            row = grid[(u - 1) * d + (w - 1)]
            for v in range(1, d + 1):
                for wp in range(1, d + 1):
                    if wp == w:
                        continue
                    entry[pivot_mode - 1], entry[v_mode - 1], entry[w_mode - 1] = u, v, wp
                    val = t[tuple(entry)]
                    if wp < w:
                        row[(v - 1) * len(pairs) + pair_pos[(wp, w)]] += val
                    else:
                        row[(v - 1) * len(pairs) + pair_pos[(w, wp)]] -= val
    return tuple(tuple(r) for r in grid)


@SETTINGS
@given(entry_lists())
def test_levels_are_reduced_and_round_trip(level):
    k, d, entries = level
    t = Tensor(k, d, tuple(entries))
    assert t.den > 0 and gcd(t.den, *t.nums) == 1
    assert len(t.nums) == d**k and all(type(n) is int for n in t.nums)
    assert t.entries == tuple(entries) and all(type(x) is Fraction for x in t.entries)
    assert t.is_zero == (not any(entries))


@SETTINGS
@given(same_shape_pairs(), st.integers(1, 12))
def test_equality_and_hash_follow_the_entries_across_routes(pair, c):
    k, d, a, b = pair
    s, t = Tensor(k, d, tuple(a)), Tensor(k, d, tuple(b))
    # the kernel's unreduced form of t: every numerator and the denominator times c
    scaled = Tensor._of_level(k, d, ([c * n for n in t.nums], c * t.den))
    for u in (scaled, t + t - t, (-t).scale(-c).scale(Fraction(1, c)), s - s + t):
        assert u == t and hash(u) == hash(t) and u.entries == t.entries
        assert (u == s) == (tuple(a) == tuple(b))


@SETTINGS
@given(same_shape_pairs(), rationals)
def test_arithmetic_matches_fraction_references(pair, c):
    k, d, a, b = pair
    s, t = Tensor(k, d, tuple(a)), Tensor(k, d, tuple(b))
    assert list((s + t).entries) == [x + y for x, y in zip(a, b)]
    assert list((s - t).entries) == [x - y for x, y in zip(a, b)]
    assert list((-s).entries) == [-x for x in a]
    assert list(s.scale(c).entries) == list((c * s).entries) == [c * x for x in a]
    assert s - s == Tensor.zeros(k, d) and (s - s).den == 1
    # b - a added to a cancels every fraction: the sum is b, over b's denominator
    assert (s + (t - s)).entries == tuple(b) and (s + (t - s)).den == t.den
    assert (s + (-s)).nums == (0,) * d**k and (s + (-s)).den == 1


def test_sums_that_cancel_to_integers_have_denominator_one():
    half = Tensor.from_entries(1, 2, ["1/2", "-3/2"])
    whole = half + half
    assert (whole.nums, whole.den) == ((1, -3), 1)
    third = Tensor.from_entries(2, 2, ["1/3", "2/3", "-1/6", "5/6"])
    rest = Tensor.from_entries(2, 2, ["2/3", "1/3", "1/6", "-5/6"])
    assert ((third + rest).nums, (third + rest).den) == ((1, 1, 0, 0), 1)
    assert ((third - third).nums, (third - third).den) == ((0, 0, 0, 0), 1)


@SETTINGS
@given(entry_lists(), st.data())
def test_tensor_product_matches_the_fraction_outer_product(left, data):
    k, d, a = left
    m, _, b = data.draw(entry_lists(data.draw(st.integers(0, 3 - k)), d))
    product = tensor_product(Tensor(k, d, tuple(a)), Tensor(m, d, tuple(b)))
    assert product.order == k + m
    assert list(product.entries) == [x * y for x in a for y in b]


@SETTINGS
@given(entry_lists(), st.data())
def test_permute_modes_matches_the_index_loop(level, data):
    k, d, entries = level
    perm = data.draw(st.permutations(range(1, k + 1)))
    got = permute_modes(Tensor(k, d, tuple(entries)), perm)
    assert list(got.entries) == ref_permute_modes(entries, k, d, perm)


@SETTINGS
@given(entry_lists(), st.data())
def test_gl_act_matches_the_fraction_contraction(level, data):
    k, d, entries = level
    m = data.draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(matrix_rank(m) == d)
    got = gl_act(m, Tensor(k, d, tuple(entries)))
    assert list(got.entries) == ref_gl_act(m, entries, k, d)


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_elementary_matches_the_fraction_outer_product(d, k, data):
    vectors = [data.draw(st.lists(rationals, min_size=d, max_size=d)) for _ in range(k)]
    want = [Fraction(1)]
    for v in vectors:
        want = [x * y for x in want for y in v]
    assert list(Tensor.elementary(vectors, d).entries) == want


@SETTINGS
@given(st.integers(1, 4), st.sampled_from([1, 2, 3]), st.data())
def test_koszul_flatten_matches_the_per_entry_loop(d, pivot, data):
    _, _, entries = data.draw(entry_lists(3, d))
    t = Tensor(3, d, tuple(entries))
    assert koszul_flatten(t, pivot) == ref_koszul_flatten(t, pivot)


@pytest.mark.parametrize("entries", [(1.5, Fraction(1)), (0.0, 0), (Fraction(1), 2.0)])
def test_float_entries_are_rejected(entries):
    with pytest.raises(TypeError):
        Tensor(1, 2, entries)
