import random
from fractions import Fraction

import pytest

from sigtensor import (
    LogSignature,
    Path,
    Sig222Params,
    Tensor,
    brute_force_symmetric,
    exp_log_signature,
    lie_bracket,
    partial_symmetry_constraint,
    pwl_signature,
    sig222_from_params,
    skew_impossibility_check,
    symmetry_report,
    tensor_product,
    verify_partial_symmetry_consequences,
)
from sigtensor import graded
from sigtensor.harness import random_log_signature
from sigtensor.lie import lie_basis
from sigtensor.serialize import tensor_from_json
from sigtensor.symmetry import is_skew, is_symmetric, plain_symmetry_report


def test_sig222_params_constructor_and_of_give_equal_exact_tensors():
    direct = Sig222Params(1, 2, 3, 4, 5)
    assert direct == Sig222Params.of(1, 2, 3, 4, 5)
    assert all(type(v) is Fraction for v in (direct.x, direct.y, direct.a, direct.b, direct.c))
    t = sig222_from_params(direct)
    assert t == sig222_from_params(Sig222Params.of("1", "2", "3", "4", "5"))
    assert t.entries[0] == Fraction(1, 6)


def test_power_tensor_report():
    t = Tensor.elementary([[1, 2]] * 3)
    rep = symmetry_report(t)
    assert rep.is_symmetric
    assert rep.partial == {"first_k_minus_1", "last_k_minus_1"}
    assert not rep.is_skew
    assert rep.witness is not None  # witnesses the failed skew flag


def test_area_tensor_report():
    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    rep = symmetry_report(area)
    assert rep.is_skew and not rep.is_symmetric
    assert rep.witness is not None


def test_zero_tensor_report():
    rep = symmetry_report(Tensor.zeros(3, 2))
    assert rep.is_symmetric and rep.is_skew
    assert rep.witness is None


def test_report_requires_order_two():
    with pytest.raises(ValueError):
        symmetry_report(Tensor.from_vector([1, 2]))


def test_partial_flags_of_family_parameters():
    t = sig222_from_params(Sig222Params.of(6, -6, 1, 1, 1))
    rep = symmetry_report(t)
    assert rep.partial == {"first_k_minus_1"}
    assert not rep.is_symmetric


@pytest.mark.parametrize("k", [3, 4])
def test_symmetry_consistency_brute_force(k):
    rng = random.Random(41 + k)
    for _ in range(12):
        entries = [rng.randint(-2, 2) for _ in range(2**k)]
        t = Tensor.from_entries(k, 2, entries)
        rep = symmetry_report(t)
        brute = brute_force_symmetric(t)
        assert rep.is_symmetric == brute
        assert rep.is_symmetric == (rep.partial == {"first_k_minus_1", "last_k_minus_1"})
    # symmetrized tensors exercise the all-flags-true branch
    sym = Tensor.elementary([[1, 1]] * k) + Tensor.elementary([[2, -1]] * k)
    assert symmetry_report(sym).is_symmetric and brute_force_symmetric(sym)


def test_sig222_zero_params():
    assert sig222_from_params(Sig222Params.of(0, 0, 0, 0, 0)).is_zero


def test_sig222_pure_x():
    t = sig222_from_params(Sig222Params.of(1, 0, 0, 0, 0))
    assert t[(1, 1, 1)] == Fraction(1, 6)
    assert sum(1 for x in t.entries if x != 0) == 1


def test_sig222_entry_112():
    t = sig222_from_params(Sig222Params.of(6, -6, 1, 1, 1))
    assert t[(1, 1, 2)] == Fraction(36 * -6, 6) + Fraction(6, 2) + 1  # -32


def test_sig222_matches_exponential():
    rng = random.Random(19)
    for _ in range(10):
        params = Sig222Params.of(*(rng.randint(-5, 5) for _ in range(5)))
        direct = sig222_from_params(params)
        via_exp = exp_log_signature(params.log_signature()).level(3)
        assert direct == via_exp


def test_constraint_first_side_examples():
    assert partial_symmetry_constraint(Sig222Params.of(6, -6, 1, 1, 1), "first") is True
    assert partial_symmetry_constraint(Sig222Params.of(1, 1, 1, 1, 1), "first") is False


def test_constraint_fully_symmetric_family():
    rng = random.Random(29)
    for _ in range(10):
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        params = Sig222Params.of(x, y, 0, 0, 0)
        assert partial_symmetry_constraint(params, "first")
        assert partial_symmetry_constraint(params, "last")
        assert is_symmetric(sig222_from_params(params))


def test_constraint_iff_flag_on_random_tuples():
    rng = random.Random(71)
    for trial in range(200):
        if trial % 4 == 0:
            x, y, a = (Fraction(rng.randint(-6, 6)) for _ in range(3))
            params = Sig222Params.of(x, y, a, a * x / 6, -a * y / 6)
        else:
            params = Sig222Params.of(*(rng.randint(-6, 6) for _ in range(5)))
        rep = symmetry_report(sig222_from_params(params))
        assert partial_symmetry_constraint(params, "first") == ("first_k_minus_1" in rep.partial)
        assert partial_symmetry_constraint(params, "last") == ("last_k_minus_1" in rep.partial)


def test_constraint_rejects_bad_side():
    with pytest.raises(ValueError):
        partial_symmetry_constraint(Sig222Params.of(0, 0, 0, 0, 0), "middle")


def test_consequences_segment_passes_nonvacuously():
    l = LogSignature.from_levels(
        [Tensor.from_vector([1, 2])] + [Tensor.zeros(k, 2) for k in (2, 3, 4)], 2
    )
    res = verify_partial_symmetry_consequences(l, 4)
    assert res.applies and res.passed


def test_consequences_vacuous_for_nonsymmetric_level():
    rng = random.Random(59)
    hit_vacuous = False
    for _ in range(10):
        l = random_log_signature(rng, 2, 4)
        res = verify_partial_symmetry_consequences(l, 4)
        assert res.passed
        hit_vacuous = hit_vacuous or not res.applies
    assert hit_vacuous


def test_consequences_pure_level3_not_partially_symmetric():
    # T1 = 0, T3 != 0: level 6 of exp is never partially symmetric
    basis3 = lie_basis(3, 3)
    t3 = basis3[0] + basis3[3].scale(2)
    levels = [Tensor.zeros(1, 3), Tensor.zeros(2, 3), t3] + [Tensor.zeros(k, 3) for k in (4, 5, 6)]
    l = LogSignature.from_levels(levels, 3)
    sig = exp_log_signature(l)
    rep = symmetry_report(sig.level(6))
    assert not rep.partial
    assert verify_partial_symmetry_consequences(l, 6).passed


def test_consequences_rejects_small_k():
    l = LogSignature.zero(2, 4)
    with pytest.raises(ValueError):
        verify_partial_symmetry_consequences(l, 3)


def test_partial_symmetry_propagates_down():
    # nonzero partially symmetric level k forces the flag at level k-1 too
    rng = random.Random(61)
    for _ in range(10):
        l = random_log_signature(rng, 2, 5)
        sig = exp_log_signature(l)
        for k in (4, 5):
            level = sig.level(k)
            if level.is_zero:
                continue
            flags = symmetry_report(level).partial
            if flags:
                below = symmetry_report(sig.level(k - 1)).partial
                assert flags <= below


def test_skew_power_of_area_is_not_skew():
    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    square = tensor_product(area, area)
    assert not is_skew(square)
    l = LogSignature.from_levels([Tensor.zeros(1, 2), area, Tensor.zeros(3, 2), Tensor.zeros(4, 2)], 2)
    assert skew_impossibility_check(l, 4)


def test_skew_segment_levels():
    l = LogSignature.from_levels([Tensor.from_vector([1, 2, 3])] + [Tensor.zeros(k, 3) for k in (2, 3)], 3)
    assert skew_impossibility_check(l, 3)


def test_skew_harness_on_random_log_signatures():
    rng = random.Random(83)
    for _ in range(40):
        d = rng.randint(2, 3)
        l = random_log_signature(rng, d, 5)
        for k in (3, 4, 5):
            assert skew_impossibility_check(l, k)


def test_skew_rejects_k2():
    l = LogSignature.zero(2, 3)
    with pytest.raises(ValueError):
        skew_impossibility_check(l, 2)


def test_skew_matrix_power_never_skew():
    rng = random.Random(97)
    for _ in range(100):
        d = rng.randint(2, 3)
        entries = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                entries[i][j] = rng.randint(-3, 3)
                entries[j][i] = -entries[i][j]
        a = Tensor.from_entries(2, d, [x for row in entries for x in row])
        if a.is_zero:
            continue
        assert is_skew(a)
        assert not is_skew(tensor_product(a, a))


@pytest.mark.parametrize("letter", [1, 2])
def test_a_cube_of_a_basis_vector_fails_skew_on_its_diagonal_entry(letter):
    # the only nonzero entry sits on a diagonal run: every off-diagonal pair is zero
    e = Tensor.basis_vector(2, letter)
    rep = symmetry_report(tensor_product(tensor_product(e, e), e))
    assert rep.is_symmetric and not rep.is_skew
    assert rep.partial == {"first_k_minus_1", "last_k_minus_1"}
    assert rep.witness == ((letter,) * 3, (letter,) * 3)


def test_skew_witness_on_a_segment_is_an_off_diagonal_pair_before_any_diagonal_entry():
    # (1, 1, 1, 1, 1) is nonzero, but the off-diagonal pairs at position 0 come first
    rep = symmetry_report(pwl_signature(Path.from_increments([[2, -1, 3, 1, -3]]), 5).level(5))
    assert rep.is_symmetric and not rep.is_skew
    assert rep.witness == ((1, 2, 1, 1, 1), (2, 1, 1, 1, 1))


def whole_level_comparisons(monkeypatch) -> list[list]:
    """[position, outcome] for each level with two letters swapped that
    symmetry builds: the spy returns it as a tuple that records how it
    compares with the level."""
    seen: list[list] = []
    real = graded.swap_positions

    class Recorded(tuple):
        def __eq__(self, other):
            seen[-1][1] = tuple.__eq__(self, other)
            return seen[-1][1]

        __hash__ = tuple.__hash__

    def recorded(nums, dim, order, pos):
        seen.append([pos, None])
        return Recorded(real(nums, dim, order, pos))

    monkeypatch.setattr(graded, "swap_positions", recorded)
    return seen


def test_a_collinear_level_is_settled_by_one_whole_level_comparison_per_position(monkeypatch):
    seen = whole_level_comparisons(monkeypatch)
    rep = symmetry_report(pwl_signature(Path.from_increments([[2, -1, 3, 1, -3]]), 5).level(5))
    assert seen == [[0, True], [1, True], [2, True], [3, True]]
    assert rep.is_symmetric and not rep.is_skew
    assert rep.partial == {"first_k_minus_1", "last_k_minus_1"}
    assert rep.witness == ((1, 2, 1, 1, 1), (2, 1, 1, 1, 1))  # the first entry pair the skew flag fails at


def test_skew_positions_are_accepted_by_one_whole_level_comparison(monkeypatch):
    # order 3, d = 4: t[I] = sign(I) * (sum of I) on distinct letters, 0 elsewhere
    entries = []
    for index in Tensor.zeros(3, 4).indices():
        inversions = sum(index[i] > index[j] for i in range(3) for j in range(i + 1, 3))
        entries.append((-1) ** inversions * sum(index) if len(set(index)) == 3 else 0)
    t = Tensor.from_entries(3, 4, entries)
    seen = whole_level_comparisons(monkeypatch)
    assert is_skew(t)
    assert seen == [[0, True], [1, True]]  # against the negated level
    seen.clear()
    rep = symmetry_report(t)
    assert rep.is_skew and not rep.is_symmetric
    assert seen == [[0, True], [1, True]]  # the symmetric scan fails at its first pair, before any evidence


# a d=4 path with a generic signature, and the same path in {x_1 = 0} of Q^5
GENERIC = [[1, -2, 3, 0], [-3, 1, 0, 2], [2, 2, -1, -3], [0, -1, 3, 1], [-2, 3, 1, -1], [3, 0, -2, 2]]


@pytest.mark.parametrize("increments", [GENERIC, [[0] + u for u in GENERIC]], ids=["generic", "confined"])
def test_generic_and_confined_tensors_build_no_swapped_level(monkeypatch, increments):
    # a generic level fails at its first run pair; a confined one reads zero
    # pairs first, which agree but are no evidence, then fails at the first nonzero one
    seen = whole_level_comparisons(monkeypatch)
    rep = symmetry_report(pwl_signature(Path.from_increments(increments), 5).level(5))
    assert seen == []
    assert not rep.is_symmetric and not rep.is_skew and rep.witness is not None


def test_plain_entries_spelled_apart_at_mirrored_positions_are_no_violation():
    # "1/2" and "2/4" differ as strings at (1, 2) and (2, 1), and name one value
    entries = ("0", "1/2", "2/4", "0")
    rep = plain_symmetry_report(entries, 2, 2)
    assert rep == symmetry_report(tensor_from_json({"order": 2, "dim": 2, "entries": list(entries)}))
    assert rep.is_symmetric and not rep.is_skew and rep.witness == ((1, 2), (2, 1))


def test_plain_zeros_spelled_otherwise_are_zero():
    # every entry is 0: no flag fails, though only "0" counts a run as zero
    rep = plain_symmetry_report(("-0", "0/3", "0", "000", "0", "-0/7", "00", "0"), 3, 2)
    assert rep == symmetry_report(Tensor.zeros(3, 2))
    assert rep.is_symmetric and rep.is_skew and rep.witness is None


def test_the_skew_scan_negates_a_plain_run_only_up_to_its_first_difference(monkeypatch):
    # level 5 of a generic path in Q^4 is symmetric nowhere: the skew scan's
    # first run pair, of 4^3 entries, differs at its first entry, so one entry
    # is negated to compare it and once more to test its value
    from sigtensor import serialize

    t = pwl_signature(Path.from_increments([[1, -2, 3, 0], [-3, 1, 0, 2], [2, 2, -1, -3]]), 5).level(5)
    entries = tuple(serialize.tensor_to_json(t)["entries"])
    negated = []
    real = serialize.negated
    monkeypatch.setattr(serialize, "negated", lambda text: negated.append(text) or real(text))
    rep = plain_symmetry_report(entries, 5, 4)
    assert rep == symmetry_report(t)
    assert not rep.is_skew and len(negated) == 2
