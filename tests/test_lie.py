import random
from fractions import Fraction

import pytest

from sigtensor import (
    LogSignature,
    Partition,
    Path,
    Tensor,
    certify_rank,
    dynkin_map,
    exp_log_signature,
    f_lambda,
    flattening_lower_bound,
    is_lie_element,
    lie_basis,
    lie_bracket,
    log_signature,
    lyndon_words,
    partitions_of,
    pure_volume_check,
    pwl_signature,
    segment_signature,
    tensor_product,
    thrall_forced_zero,
)
from sigtensor.harness import random_log_signature
from sigtensor.ranks import Decomposition


E1 = Tensor.basis_vector(3, 1)
E2 = Tensor.basis_vector(3, 2)
E3 = Tensor.basis_vector(3, 3)


def test_bracket_on_basis():
    b = lie_bracket(E1, E2)
    assert b[(1, 2)] == 1 and b[(2, 1)] == -1
    assert sum(1 for x in b.entries if x != 0) == 2


def test_bracket_alternating():
    v = Tensor.from_vector([1, 2, -1])
    assert lie_bracket(v, v).is_zero


def test_jacobi_identity():
    total = (
        lie_bracket(lie_bracket(E1, E2), E3)
        + lie_bracket(lie_bracket(E2, E3), E1)
        + lie_bracket(lie_bracket(E3, E1), E2)
    )
    assert total.is_zero


def test_is_lie_element_bracket_true():
    assert is_lie_element(lie_bracket(E1, E2))


def test_is_lie_element_plain_product_false():
    assert not is_lie_element(tensor_product(E1, E2))


def test_is_lie_element_order3_double_bracket():
    area23 = lie_bracket(E2, E3)
    t3 = lie_bracket(E1, area23)
    assert is_lie_element(t3)


def test_dynkin_agrees_with_nested_brackets():
    rng = random.Random(4)
    for k in (2, 3, 4):
        for b in lie_basis(2, k):
            assert dynkin_map(b) == b.scale(k)
        t = Tensor.zeros(k, 2)
        for b in lie_basis(2, k):
            t = t + b.scale(rng.randint(-3, 3))
        assert is_lie_element(t)


def test_log_signature_constructor_validates():
    e11 = Tensor.from_entries(2, 2, [1, 0, 0, 0])
    with pytest.raises(ValueError, match="not a Lie element"):
        LogSignature.from_levels([Tensor.from_vector([1, 0]), e11], 2)


def test_truncate_drops_and_pads_levels():
    l = log_signature(segment_signature([1, -2, 3], 3))
    assert l.truncate(3) is l
    short = l.truncate(2)
    assert short.max_level == 2 and short.levels == l.levels[:2]
    long = l.truncate(5)
    assert long.max_level == 5 and long.levels[:3] == l.levels
    assert long.level(4).is_zero and long.level(5).is_zero
    assert exp_log_signature(short) == segment_signature([1, -2, 3], 2)
    assert exp_log_signature(long) == segment_signature([1, -2, 3], 5)


def test_truncate_checks_no_level_again(monkeypatch):
    # the levels it keeps passed the Dynkin check when l was built, and the
    # levels it pads are zero
    from sigtensor import lie

    l = log_signature(segment_signature([1, -2, 3], 4))
    calls = []
    real = lie.is_lie_element
    monkeypatch.setattr(lie, "is_lie_element", lambda t: calls.append(t.order) or real(t))
    short, long = l.truncate(2), l.truncate(6)
    assert calls == []
    assert short == LogSignature.from_levels(l.levels[:2], 3)
    assert long == LogSignature.from_levels([*l.levels, Tensor.zeros(5, 3), Tensor.zeros(6, 3)], 3)
    assert calls == [1, 2, 1, 2, 3, 4, 5, 6]  # the two comparisons' own checks
    with pytest.raises(ValueError, match="max_level must be >= 0"):
        l.truncate(-1)


def test_exp_of_pure_level_one_is_segment():
    l = LogSignature.from_levels(
        [Tensor.from_vector([2, 1, -1])] + [Tensor.zeros(k, 3) for k in (2, 3, 4)], 3
    )
    assert exp_log_signature(l) == segment_signature([2, 1, -1], 4)


def test_exp_of_zero_is_trivial():
    from sigtensor import TruncatedSignature

    assert exp_log_signature(LogSignature.zero(3, 3)) == TruncatedSignature.trivial(3, 3)


def test_exp_pure_area_level4():
    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    l = LogSignature.from_levels([Tensor.zeros(1, 2), area, Tensor.zeros(3, 2), Tensor.zeros(4, 2)], 2)
    sig = exp_log_signature(l)
    assert sig.level(1).is_zero and sig.level(3).is_zero
    assert sig.level(2) == area
    assert sig.level(4) == tensor_product(area, area).scale(Fraction(1, 2))


def test_log_of_segment_is_pure_level_one():
    l = log_signature(segment_signature([1, -2, 3], 4))
    assert l.level(1) == Tensor.from_vector([1, -2, 3])
    assert all(l.level(k).is_zero for k in (2, 3, 4))


def test_log_of_trivial_is_zero():
    from sigtensor import TruncatedSignature

    assert log_signature(TruncatedSignature.trivial(2, 3)).is_zero


def test_log_level2_of_two_axis_steps():
    sig = pwl_signature(Path.from_increments([[1, 0], [0, 1]]), 2)
    l = log_signature(sig)
    expected = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2)).scale(Fraction(1, 2))
    assert l.level(2) == expected


def test_log_requires_constant_one():
    from sigtensor import TruncatedSignature

    bad = TruncatedSignature.from_levels([Tensor.scalar(2, 2), Tensor.zeros(1, 2)], 2)
    with pytest.raises(ValueError, match="constant term"):
        log_signature(bad)


def test_exp_log_round_trips():
    rng = random.Random(31)
    for _ in range(5):
        l = random_log_signature(rng, rng.randint(2, 3), rng.randint(2, 4))
        sig = exp_log_signature(l)
        assert log_signature(sig) == l
        assert exp_log_signature(log_signature(sig)) == sig


def test_pwl_log_levels_are_lie():
    path = Path.from_increments([[1, 0, 1], [2, -1, 0], [0, 1, 1]])
    l = log_signature(pwl_signature(path, 4))
    for k in range(1, 5):
        assert is_lie_element(l.level(k)) or l.level(k).is_zero


def test_f_lambda_single_part():
    rng = random.Random(12)
    l = random_log_signature(rng, 2, 3)
    assert f_lambda(l, Partition.of(3)) == l.level(3)


def test_f_lambda_two_one():
    rng = random.Random(13)
    l = random_log_signature(rng, 2, 3)
    t1, t2 = l.level(1), l.level(2)
    expected = (tensor_product(t1, t2) + tensor_product(t2, t1)).scale(Fraction(1, 2))
    assert f_lambda(l, Partition.of(2, 1)) == expected


def test_f_lambda_all_ones():
    rng = random.Random(14)
    l = random_log_signature(rng, 2, 3)
    t1 = l.level(1)
    cube = tensor_product(tensor_product(t1, t1), t1).scale(Fraction(1, 6))
    assert f_lambda(l, Partition.of(1, 1, 1)) == cube


def test_f_lambda_component_sum():
    rng = random.Random(15)
    for _ in range(3):
        d = rng.randint(2, 3)
        l = random_log_signature(rng, d, 4)
        sig = exp_log_signature(l)
        for k in range(1, 5):
            total = Tensor.zeros(k, d)
            for lam in partitions_of(k):
                total = total + f_lambda(l, lam)
            assert total == sig.level(k)


def test_partitions_of_counts():
    assert len(list(partitions_of(4))) == 5
    assert len(list(partitions_of(6))) == 11


def test_thrall_forced_zero_examples():
    assert thrall_forced_zero(Partition.of(2, 1, 1), 4) is True
    assert thrall_forced_zero(Partition.of(2, 2), 4) is False
    # no part of (2,3,6) divides 11, so the divisibility test cannot fire,
    # even though that module contains no nonzero signature either
    assert thrall_forced_zero(Partition.of(6, 3, 2), 11) is False
    with pytest.raises(ValueError):
        thrall_forced_zero(Partition.of(2, 1), 4)


def test_thrall_forced_zero_agrees_with_component_vanishing():
    # if every other component of exp level k vanishes, a forced-zero
    # partition's own component must vanish too
    rng = random.Random(16)
    for _ in range(5):
        d = rng.randint(2, 3)
        l = random_log_signature(rng, d, 4)
        for k in (2, 3, 4):
            for lam in partitions_of(k):
                if not thrall_forced_zero(lam, k):
                    continue
                others_vanish = all(
                    f_lambda(l, mu).is_zero for mu in partitions_of(k) if mu != lam
                )
                if others_vanish:
                    assert f_lambda(l, lam).is_zero


def test_pure_volume_uniform_partition_not_forced():
    # a pure 2-volume witnesses that the uniform partition (2,2) carries
    # nonzero signatures, matching thrall_forced_zero((2,2), 4) == False
    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    l = LogSignature.from_levels([Tensor.zeros(1, 2), area, Tensor.zeros(3, 2), Tensor.zeros(4, 2)], 2)
    assert not f_lambda(l, Partition.of(2, 2)).is_zero
    assert all(f_lambda(l, mu).is_zero for mu in partitions_of(4) if mu != Partition.of(2, 2))


def test_pure_volume_check_area():
    area = lie_bracket(Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2))
    l = LogSignature.from_levels([Tensor.zeros(1, 2), area, Tensor.zeros(3, 2), Tensor.zeros(4, 2)], 2)
    sig = exp_log_signature(l)
    assert pure_volume_check(sig, 2, 3) is True


def test_pure_volume_check_segment_false():
    sig = segment_signature([1, 1], 4)
    assert pure_volume_check(sig, 2, 3) is False


def test_pure_volume_check_preconditions():
    sig = segment_signature([1, 1], 4)
    with pytest.raises(ValueError):
        pure_volume_check(sig, 2, 2)
    with pytest.raises(ValueError):
        pure_volume_check(sig, 2, 5)


def test_pure_volume_rank_pattern():
    # skew area of matrix rank 2 in d=4: flattening bounds (r, r^2) at levels (2, 4)
    e = [Tensor.basis_vector(4, i) for i in range(1, 5)]
    area = lie_bracket(e[0], e[1])
    l = LogSignature.from_levels([Tensor.zeros(1, 4), area, Tensor.zeros(3, 4), Tensor.zeros(4, 4)], 4)
    sig = exp_log_signature(l)
    assert flattening_lower_bound(sig.level(2)) == 2
    assert flattening_lower_bound(sig.level(4)) == 4
    # certified upper bound multiplies: level 4 witness from squaring the level-2 witness
    terms2 = [(Fraction(1), ([1, 0, 0, 0], [0, 1, 0, 0])), (Fraction(-1), ([0, 1, 0, 0], [1, 0, 0, 0]))]
    w2 = Decomposition.of(4, 2, terms2)
    assert w2.realize() == sig.level(2)
    terms4 = [
        (c1 * c2 * Fraction(1, 2), list(f1) + list(f2))
        for c1, f1 in terms2
        for c2, f2 in terms2
    ]
    w4 = Decomposition.of(4, 4, terms4)
    cert = certify_rank(sig.level(4), w4)
    assert cert.lower == 4 and cert.upper == 4 and cert.status == "exact"


def test_lyndon_word_counts():
    assert len(lyndon_words(2, 1)) == 2
    assert len(lyndon_words(2, 2)) == 1
    assert len(lyndon_words(2, 3)) == 2
    assert len(lyndon_words(3, 3)) == 8
    assert len(lyndon_words(3, 4)) == 18
    assert len(lyndon_words(3, 5)) == 48


def test_lie_basis_is_independent():
    from sigtensor import matrix_rank

    basis = lie_basis(3, 3)
    rows = [list(t.entries) for t in basis]
    assert matrix_rank(rows) == len(basis)
