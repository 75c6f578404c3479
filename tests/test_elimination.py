"""Cross-checks of the one integer elimination kernel, _echelon, behind
integer_rank, Subspace.span, rref and mode_subspaces (its rows, pivot
columns and pivot entries), and of the offset scan behind symmetry_report.
Expected values come from the plain Fraction elimination and the
Tensor-indexing reads of references.py, the Fraction determinant and the
one-fiber-at-a-time echelon scan below, never from the code under test."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from sigtensor import Path, Subspace, Tensor, conciseness, graded, mode_subspaces, pwl_signature, rref, symmetric_conciseness, symmetry_report
from sigtensor.linalg import _echelon, integer_rank

from references import reference_flattening, reference_rref, reference_violation

SETTINGS = settings(max_examples=80, deadline=None)

# denominators up to 6, so vectors mix denominators
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def reference_span(vectors, d: int) -> Subspace:
    return Subspace(d, tuple(tuple(row) for row in reference_rref(vectors)))


@st.composite
def vector_lists(draw):
    """Up to 7 vectors in Q^d, d <= 4, with zero vectors, duplicates and
    multiples mixed in; some lists are confined to a coordinate subspace or
    to one line."""
    d = draw(st.integers(1, 4))
    vector = st.lists(rationals, min_size=d, max_size=d)
    vs = draw(st.lists(vector, max_size=7))
    kind = draw(st.sampled_from(["free", "confined", "collinear"]))
    if kind == "confined":
        dead = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d))
        vs = [[Fraction(0) if j in dead else x for j, x in enumerate(v)] for v in vs]
    elif kind == "collinear":
        line = draw(vector)
        vs = [[c * x for x in line] for c in draw(st.lists(rationals, max_size=5))]
    extras = []
    for v in vs:
        extra = draw(st.sampled_from(["none", "zero", "duplicate", "multiple"]))
        if extra == "zero":
            extras.append([Fraction(0)] * d)
        elif extra == "duplicate":
            extras.append(list(v))
        elif extra == "multiple":
            c = draw(rationals)
            extras.append([c * x for x in v])
    order = draw(st.permutations(range(len(vs) + len(extras))))
    allv = vs + extras
    return d, [allv[i] for i in order]


@SETTINGS
@given(vector_lists())
def test_span_matches_fraction_reference(case):
    d, vectors = case
    w = Subspace.span(vectors, d)
    assert w == reference_span(vectors, d)
    assert all(type(x) is Fraction for row in w.basis for x in row)


@SETTINGS
@given(vector_lists())
def test_rref_matches_fraction_reference(case):
    _, vectors = case
    assert rref(vectors) == reference_rref(vectors)


@SETTINGS
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), max_size=7))
def test_echelon_rows_have_rising_pivots(vectors):
    rows = _echelon(vectors, 4)
    pivots = [pc for pc, _ in rows]
    assert pivots == sorted(set(pivots))
    for pc, row in rows:
        assert all(x == 0 for x in row[:pc]) and row[pc] != 0
    assert len(rows) == len(reference_rref(vectors))


def reference_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def leading_minors(rows) -> list[Fraction]:
    return [reference_det([row[:i] for row in rows[:i]]) for i in range(1, len(rows) + 1)]


def test_echelon_pivots_are_the_leading_minors():
    # row 2 has a zero in column 1, so it is rescaled by 3 with nothing subtracted
    rows = [[3, 1, 4, 1], [0, 5, 9, 2], [6, 5, 3, 5], [8, 9, 7, 9]]
    assert leading_minors(rows) == [3, 15, -156, -186]
    assert [row[pc] for pc, row in _echelon(rows, 4)] == [3, 15, -156, -186]


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1), min_size=n, max_size=n)))
def test_echelon_pivot_entries_equal_leading_minors(rows):
    # n x (n + 1) with every leading principal minor nonzero: the i-th row read
    # becomes the i-th row, and Bareiss's exact division keeps its pivot at the minor
    minors = leading_minors(rows)
    assume(all(minors))
    echelon = _echelon(rows, len(rows[0]))
    assert [pc for pc, _ in echelon] == list(range(len(rows)))
    assert [row[pc] for pc, row in echelon] == minors


def test_span_stops_reading_once_full():
    read = []

    def vectors():
        for v in ([1, 0], [1, 1], "not a vector"):
            read.append(v)
            yield v

    assert Subspace.span(vectors(), 2).is_full
    assert read == [[1, 0], [1, 1]]


def test_span_and_rref_reject_bad_lengths():
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace.span([[1, 2], [1, 2, 3]], 2)
    with pytest.raises(ValueError, match="ragged"):
        rref([[1, 2], [1, 2, 3]])
    assert rref([]) == []


def reference_mode_subspaces(t: Tensor) -> list[Subspace]:
    """Mode fibers read entry by entry through Tensor indexing."""
    return [reference_span(zip(*reference_flattening(t, (mode + 1,))), t.dim) for mode in range(t.order)]


@st.composite
def tensors(draw):
    """Order 1..4, d <= 3 (d <= 4 at order <= 2): dense entries, zero, or
    a tensor whose fibers all lie in a coordinate subspace or on one line."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4 if k <= 2 else 3))
    kind = draw(st.sampled_from(["dense", "zero", "confined", "collinear"]))
    if kind == "zero":
        return Tensor.zeros(k, d)
    if kind == "collinear":
        line = draw(st.lists(rationals, min_size=d, max_size=d))
        return Tensor.elementary([line] * k, d).scale(draw(rationals))
    entries = draw(st.lists(rationals, min_size=d**k, max_size=d**k))
    if kind == "confined":
        dead = draw(st.integers(1, d))
        entries = [Fraction(0) if dead in index else x for index, x in zip(product(range(1, d + 1), repeat=k), entries)]
    return Tensor.from_entries(k, d, entries)


@SETTINGS
@given(tensors())
def test_mode_subspaces_match_fibers_read_by_index(t):
    assert mode_subspaces(t) == reference_mode_subspaces(t)


def reference_pivot_columns(rows) -> list[int]:
    """Column c is a pivot iff it raises the Fraction rank of columns 0..c."""
    ranks = [len(reference_rref([row[:c] for row in rows])) for c in range(len(rows[0]) + 1 if rows else 1)]
    return [c for c in range(len(ranks) - 1) if ranks[c + 1] > ranks[c]]


@st.composite
def integer_matrices(draw):
    """Up to 5 rows of up to 8 integers: dense, or the product of two integer
    factors of inner size r <= 3; then some columns are zeroed, often a
    leading run of them."""
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(1, 8))
    small = st.integers(-6, 6)

    def matrix(n, m):
        return draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=n, max_size=n))

    if draw(st.booleans()):
        rows = matrix(n_rows, n_cols)
    else:
        r = draw(st.integers(1, 3))
        a, b = matrix(n_rows, r), matrix(r, n_cols)
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    lead = draw(st.integers(0, n_cols))
    dead = draw(st.sets(st.integers(0, n_cols - 1)))
    return [[0 if c < lead or c in dead else x for c, x in enumerate(row)] for row in rows]


@SETTINGS
@given(integer_matrices())
def test_pivot_columns_match_fraction_reference_and_keep_input(rows):
    before = [list(r) for r in rows]
    assert [pc for pc, _ in _echelon(rows, len(rows[0]) if rows else 0)] == reference_pivot_columns(rows)
    assert rows == before


def test_pivot_column_after_a_long_zero_run():
    rows = [[0] * 1999 + [x] for x in (0, 3, -2, 5)]
    assert [pc for pc, _ in _echelon(rows, 2000)] == [1999]
    assert integer_rank(rows) == 1


def fiber_scan_echelons(t: Tensor) -> list[list]:
    """Every mode fiber, one at a time, through the incremental echelon in Q^d."""
    d, nums = t.dim, t.nums
    out = []
    for mode in range(1, t.order + 1):
        stride = d ** (t.order - mode)
        block = stride * d
        fibers = (nums[base + off : base + block : stride] for base in range(0, len(nums), block) for off in range(stride))
        out.append(_echelon(fibers, d))
    return out


def fiber_scan_mode_subspaces(t: Tensor) -> list[Subspace]:
    return [Subspace._of_echelon(rows, t.dim) for rows in fiber_scan_echelons(t)]


@st.composite
def mode_tensors(draw):
    """Order 1..4, d <= 5: random entries, a sum of elementary tensors with
    factors in a random subspace, a tensor confined to a coordinate subspace
    without e_1 (so its leading fibers are zero and letter 1 is dead), rank
    1, zero, at order 3..4 a sum of elementary tensors with factors in a
    random subspace of such a coordinate subspace (its unfoldings have zero
    rows, a zero prefix longer than d and, when that subspace has fewer
    dimensions than there are live coordinates, dependent nonzero rows, so
    the slice is not concise), or, at order 2..4, a sum of elementary
    tensors whose factors vanish at coordinate 1 at some positions only, as
    a (x) a (x) b with a_1 = 0 and b_1 != 0: letter 1 is dead at those modes
    and live at the others."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "subspace", "confined", "rank1", "zero", "dead_subspace", "partly_dead"]))
    vector = st.lists(rationals, min_size=d, max_size=d)
    if kind == "zero":
        return Tensor.zeros(k, d)
    if kind == "partly_dead":
        k = max(k, 2)
        dead_at = draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
        nonzero = rationals.filter(bool)

        def factor(position):
            v = draw(vector)
            return [0] + v[1:] if position in dead_at else [draw(nonzero)] + v[1:]

        terms = draw(st.integers(1, 3))
        return sum((Tensor.elementary([factor(p) for p in range(k)], d) for _ in range(terms)), Tensor.zeros(k, d))
    if kind == "rank1":
        return Tensor.elementary(draw(st.lists(vector, min_size=k, max_size=k)), d).scale(draw(rationals))
    if kind in ("subspace", "dead_subspace"):
        basis = draw(st.lists(vector, min_size=1, max_size=max(1, d - 1)))
        if kind == "dead_subspace":
            k = max(k, 3)
            dead = {0} | draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
            basis = [[0 if j in dead else x for j, x in enumerate(b)] for b in basis]
        coefficients = st.lists(rationals, min_size=len(basis), max_size=len(basis))
        factor = coefficients.map(lambda cs: [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(d)])
        terms = draw(st.lists(st.lists(factor, min_size=k, max_size=k), min_size=1, max_size=3))
        return sum((Tensor.elementary(factors, d) for factors in terms), Tensor.zeros(k, d))
    # up to 625 entries, drawn from a seeded generator rather than one by one
    rng = draw(st.randoms(use_true_random=False))
    entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d**k)]
    if kind == "confined":
        dead = {1} | draw(st.sets(st.integers(1, d)))
        entries = [0 if dead.intersection(index) else x for index, x in zip(product(range(1, d + 1), repeat=k), entries)]
    return Tensor.from_entries(k, d, entries)


@SETTINGS
@given(mode_tensors())
def test_mode_subspaces_match_one_fiber_at_a_time_scan(t):
    assert mode_subspaces(t) == fiber_scan_mode_subspaces(t)


@SETTINGS
@given(mode_tensors())
def test_the_level_sum_on_the_slice_is_the_sum_of_the_ambient_modes(t):
    ambient = conciseness.echelon_sum(fiber_scan_echelons(t), t.dim)
    level = conciseness.level_echelon(t)
    assert [pc for pc, _ in level] == [pc for pc, _ in ambient]
    assert Subspace._of_echelon(level, t.dim) == Subspace._of_echelon(ambient, t.dim)


def test_full_modes_are_settled_by_their_first_fibers(monkeypatch):
    # the fiber stream and the sum of spans reach _echelon as iterators;
    # an unfolding as a list of rows
    def no_unfolding(rows, n):
        if isinstance(rows, list):
            raise AssertionError("the unfolding of a full mode was eliminated")
        return _echelon(rows, n)

    monkeypatch.setattr(conciseness, "_echelon", no_unfolding)
    t = Tensor.from_entries(3, 3, [(7 * i * i + 3 * i + 1) % 11 - 5 for i in range(27)])
    assert all(w.is_full for w in mode_subspaces(t))


def eliminated_widths(monkeypatch) -> list[int]:
    """The column counts of the unfoldings that mode_subspaces eliminates,
    in order: the lists of rows that reach _echelon, not the iterators of
    fibers or of echelon rows."""
    widths = []

    def recorded(rows, n):
        if isinstance(rows, list):
            widths.append(len(rows[0]))
        return _echelon(rows, n)

    monkeypatch.setattr(conciseness, "_echelon", recorded)
    return widths


# increments of a d=4 path with a generic signature
INCREMENTS = [[1, -2, 3, 0], [-3, 1, 0, 2], [2, 2, -1, -3], [0, -1, 3, 1], [-2, 3, 1, -1], [3, 0, -2, 2]]


def test_a_level_in_a_coordinate_hyperplane_eliminates_no_unfolding(monkeypatch):
    # in {x_1 = 0} letter 1 is dead: each mode of the 4^5 slice is settled by
    # its first 4 fibers, and the rows are lifted to span(e_2..e_5)
    widths = eliminated_widths(monkeypatch)
    t = pwl_signature(Path.from_increments([[0] + u for u in INCREMENTS]), 5).level(5)
    hyperplane = Subspace.span([[int(i == j) for i in range(5)] for j in range(1, 5)], 5)
    assert conciseness.sliced_echelons(t)[0] == [1, 2, 3, 4]
    assert mode_subspaces(t) == [hyperplane] * 5
    assert widths == []
    assert fiber_scan_mode_subspaces(t) == [hyperplane] * 5


def test_a_level_in_a_coordinate_plane_eliminates_no_unfolding(monkeypatch):
    # in {x_1 = x_3 = 0} letters 1 and 3 are dead: each mode of the 3^3
    # slice is settled by its first 3 fibers
    widths = eliminated_widths(monkeypatch)
    t = pwl_signature(Path.from_increments([[0, u[0], 0] + u[1:3] for u in INCREMENTS]), 3).level(3)
    plane = Subspace.span([[0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 5)
    assert conciseness.sliced_echelons(t)[0] == [1, 3, 4]
    assert mode_subspaces(t) == [plane] * 3 == fiber_scan_mode_subspaces(t)
    assert symmetric_conciseness(t) == plane
    assert widths == []


def test_a_letter_live_at_a_later_mode_only_is_kept():
    # a (x) a (x) b with a_1 = 0 and b_1 != 0: letter 1's rows at modes 1 and
    # 2 are zero, its row at mode 3 is not, so no letter is sliced away
    a, b = [0, 2, 3, 4, 5], [1, 1, 1, 1, 1]
    t = Tensor.elementary([a, a, b])
    assert conciseness.sliced_echelons(t)[0] == [0, 1, 2, 3, 4]
    assert mode_subspaces(t) == [reference_span([a], 5)] * 2 + [reference_span([b], 5)]


def test_non_coordinate_hyperplane_modes_fall_back_to_the_unfolding(monkeypatch):
    # in {x_1 + x_2 = 0} no unfolding row is zero, so each mode eliminates
    # its whole 5 x 625 unfolding
    widths = eliminated_widths(monkeypatch)
    t = pwl_signature(Path.from_increments([[u[0], -u[0]] + u[1:] for u in INCREMENTS]), 5).level(5)
    hyperplane = Subspace.span([[1, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 5)
    assert mode_subspaces(t) == [hyperplane] * 5
    assert widths == [5**4] * 5
    assert fiber_scan_mode_subspaces(t) == [hyperplane] * 5


def swaps_built(monkeypatch) -> list[int]:
    """The positions at which a level with two letters swapped is built, in
    order."""
    built = []
    real = graded.swap_positions

    def recorded(nums, dim, order, pos):
        built.append(pos)
        return real(nums, dim, order, pos)

    monkeypatch.setattr(graded, "swap_positions", recorded)
    return built


def test_a_collinear_level_eliminates_one_unfolding_and_reuses_it(monkeypatch):
    # level 5 of one segment v is v^(x)5 / 120: every unfolding row is a
    # nonzero multiple of v^(x)4, and every swap of two letters keeps it
    widths, built = eliminated_widths(monkeypatch), swaps_built(monkeypatch)
    v = [2, -1, 3, 1, -3]
    modes = list(conciseness.mode_echelons(pwl_signature(Path.from_increments([v]), 5).level(5)))
    assert widths == [5**4]
    assert built == [0, 1, 2, 3]
    assert all(rows is modes[0] for rows in modes)
    assert [Subspace._of_echelon(rows, 5) for rows in modes] == [Subspace.span([v], 5)] * 5


@pytest.mark.parametrize("increments", [INCREMENTS, [[0] + u for u in INCREMENTS]], ids=["generic", "confined"])
def test_generic_and_confined_levels_build_no_swapped_level(monkeypatch, increments):
    # the first fibers of the level or of its live-letter slice settle each
    # mode: no mode needs the full unfolding, so no swap is tried
    built = swaps_built(monkeypatch)
    s = pwl_signature(Path.from_increments(increments), 5)
    ranks = [[len(rows) for rows in conciseness.mode_echelons(s.level(k))] for k in range(1, 6)]
    assert built == []
    assert ranks == [[1]] + [[4] * k for k in range(2, 6)]  # both paths span a 4-dimensional space


def test_a_symmetric_level_settled_by_its_first_fibers_builds_no_swapped_level(monkeypatch):
    # sum_i v_i^(x)3 with v_i = (1, i, i^2): symmetric, so every swap keeps it
    # and its entries whose other letters are 1 are symmetric too, but each
    # mode's first 3 fibers span Q^3, so no swap is tried
    built = swaps_built(monkeypatch)
    vs = [[1, i, i * i] for i in (1, 2, 3)]
    t = sum((Tensor.elementary([v] * 3) for v in vs), Tensor.zeros(3, 3))
    assert [len(rows) for rows in conciseness.mode_echelons(t)] == [3, 3, 3]
    assert built == []


def test_a_level_in_a_non_coordinate_hyperplane_builds_no_swapped_level(monkeypatch):
    # in {x_1 + x_2 = 0} every mode of levels 3-5 eliminates its full
    # unfolding, and the runs of letters (1, 2) and (2, 1) agree, since the
    # path's first two coordinates move along one line; the entries whose
    # other letters are all 1 do not, so no swap is built
    widths, built = eliminated_widths(monkeypatch), swaps_built(monkeypatch)
    s = pwl_signature(Path.from_increments([[u[0], -u[0]] + u[1:] for u in INCREMENTS]), 5)
    t = s.level(5)
    stride = 5**3
    assert t.nums[stride : 2 * stride] == t.nums[5 * stride : 6 * stride]
    ranks = [[len(rows) for rows in conciseness.mode_echelons(s.level(k))] for k in range(1, 6)]
    assert built == []
    assert widths == [5**2] * 3 + [5**3] * 4 + [5**4] * 5
    assert ranks == [[1]] + [[4] * k for k in range(2, 6)]


def test_reuse_stops_at_a_swap_that_changes_the_tensor(monkeypatch):
    # a_1 (x) a_1 (x) b_1 + a_2 (x) a_2 (x) b_2: modes 1 and 2 span the a's,
    # mode 3 the b's; swapping letters 1 and 2 keeps the tensor, swapping 2
    # and 3 does not. The a's vanish at coordinate 1, but b_1 does not, so no
    # letter is dead and mode 1 eliminates its full unfolding, and every
    # entry t[1, a, b] is 0, so only the whole level refuses the second swap.
    # No entry of b_1 is 0, so mode 3's rows are all nonzero
    a = [[0, 2, 3, 4, 5], [0, -1, 1, 3, -2]]
    b = [[1, 1, 1, 1, 1], [1, -1, 2, 0, 3]]
    t = Tensor.elementary([a[0], a[0], b[0]]) + Tensor.elementary([a[1], a[1], b[1]])
    widths, built = eliminated_widths(monkeypatch), swaps_built(monkeypatch)
    modes = list(conciseness.mode_echelons(t))
    assert built == [0, 1]
    assert widths == [25, 25]
    assert modes[1] is modes[0]
    assert [Subspace._of_echelon(rows, 5) for rows in modes] == [reference_span(a, 5)] * 2 + [reference_span(b, 5)]


@st.composite
def swap_tensors(draw):
    """Sums of up to d + 1 terms, order 2..5, 2 <= d <= 5, at most 1024
    entries. Each letter has a group, and letters in one group share a
    factor in every term, so a swap of two letters in one group keeps the
    tensor and a swap across groups, on most draws, does not: symmetric
    (one group), grouped at random (some positions symmetric), collinear
    (one term, one group), confined (every factor zero at coordinate 1 and
    perhaps others, so unfolding rows are zero and every entry with letter 1
    is 0, which leaves the whole level alone to refuse a swap), or zero. Few
    terms leave the modes short of Q^d, so they eliminate the full
    unfolding, and reuse is tried."""
    k = draw(st.integers(2, 5))
    d = draw(st.integers(2, 5 if k <= 4 else 4))
    kind = draw(st.sampled_from(["symmetric", "grouped", "collinear", "confined", "zero"]))
    if kind == "zero":
        return Tensor.zeros(k, d)
    groups = [0] * k if kind in ("symmetric", "collinear") else draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    n_terms = 1 if kind == "collinear" else draw(st.integers(1, d + 1))
    dead = {0} | draw(st.sets(st.integers(1, d - 1), max_size=d - 2)) if kind == "confined" else set()
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(lambda v: [0 if j in dead else x for j, x in enumerate(v)])
    t = Tensor.zeros(k, d)
    for _ in range(n_terms):
        factors = draw(st.lists(vector, min_size=3, max_size=3))
        t = t + Tensor.elementary([factors[g] for g in groups], d).scale(draw(rationals))
    return t


@SETTINGS
@given(swap_tensors())
def test_mode_echelons_match_the_fraction_span_of_every_fiber(t):
    assert mode_subspaces(t) == reference_mode_subspaces(t)


def permutation_sign(index) -> int:
    inversions = sum(1 for i in range(len(index)) for j in range(i + 1, len(index)) if index[i] > index[j])
    return -1 if inversions % 2 else 1


@st.composite
def structured_tensors(draw):
    """Order 2..4, d <= 3: symmetric, skew, first-block or last-block
    symmetric, or dense, each perhaps with one entry changed."""
    k, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["symmetric", "skew", "first", "last", "dense"]))
    values: dict = {}

    def value(key):
        if key not in values:
            values[key] = draw(rationals)
        return values[key]

    entries = []
    for index in product(range(1, d + 1), repeat=k):
        if kind == "symmetric":
            entries.append(value(tuple(sorted(index))))
        elif kind == "skew":
            distinct = len(set(index)) == k
            entries.append(permutation_sign(index) * value(tuple(sorted(index))) if distinct else Fraction(0))
        elif kind == "first":
            entries.append(value(tuple(sorted(index[:-1])) + index[-1:]))
        elif kind == "last":
            entries.append(value(index[:1] + tuple(sorted(index[1:]))))
        else:
            entries.append(value(index))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] += draw(rationals)
    return Tensor(k, d, tuple(entries))


@SETTINGS
@given(structured_tensors())
def test_symmetry_report_matches_indexing_scan(t):
    k = t.order
    sym = reference_violation(t, range(k - 1), +1)
    skew = reference_violation(t, range(k - 1), -1)
    first = reference_violation(t, range(k - 2), +1)
    last = reference_violation(t, range(1, k - 1), +1)
    report = symmetry_report(t)
    assert report.is_symmetric == (sym is None)
    assert report.is_skew == (skew is None)
    assert report.partial == {name for name, w in (("first_k_minus_1", first), ("last_k_minus_1", last)) if w is None}
    assert report.witness == next((w for w in (sym, skew, first, last) if w is not None), None)


@pytest.mark.parametrize("kind, flags", [
    ("first", (False, False, {"first_k_minus_1"})),
    ("last", (False, False, {"last_k_minus_1"})),
    ("skew", (False, True, set())),
])
def test_each_passing_branch_is_reached(kind, flags):
    # order 3, d = 3, values chosen so that only the named block passes
    values = {}
    entries = []
    for index in product(range(1, 4), repeat=3):
        if kind == "skew":
            entries.append(Fraction(0) if len(set(index)) < 3 else permutation_sign(index) * 5)
            continue
        key = tuple(sorted(index[:-1])) + index[-1:] if kind == "first" else index[:1] + tuple(sorted(index[1:]))
        entries.append(values.setdefault(key, Fraction(len(values) + 1, 3)))
    report = symmetry_report(Tensor(3, 3, tuple(entries)))
    assert (report.is_symmetric, report.is_skew, set(report.partial)) == flags
