"""The graded containers: TruncatedSignature holds levels 0..K and
LogSignature levels 1..K. Pins their validation messages, the order in which
a level's checks run, and their dataclass behaviour (fields, repr, ==, hash).
"""

import dataclasses

import pytest

from sigtensor import LogSignature, Tensor, TruncatedSignature, lie_bracket, tensor_product


E1, E2 = Tensor.basis_vector(2, 1), Tensor.basis_vector(2, 2)
AREA = lie_bracket(E1, E2)  # a Lie element of level 2
E11 = tensor_product(E1, E1)  # not a Lie element
E111 = tensor_product(E11, E1)


def _sig(levels):
    return TruncatedSignature(2, len(levels) - 1, tuple(levels))


def _log(levels):
    return LogSignature(2, len(levels), tuple(levels))


@pytest.mark.parametrize("cls", [TruncatedSignature, LogSignature])
def test_negative_max_level(cls):
    with pytest.raises(ValueError) as exc:
        cls(2, -1, ())
    assert str(exc.value) == "max_level must be >= 0"


@pytest.mark.parametrize("cls, levels, message", [
    (TruncatedSignature, (Tensor.scalar(1, 2),), "need one tensor per level 0..K"),
    (LogSignature, (E1,), "need one tensor per level 1..K"),
    (LogSignature, (E1, AREA, Tensor.zeros(3, 2)), "need one tensor per level 1..K"),
])
def test_wrong_level_count(cls, levels, message):
    with pytest.raises(ValueError) as exc:
        cls(2, 2, levels)
    assert str(exc.value) == message


@pytest.mark.parametrize("build, levels, message", [
    (_sig, [Tensor.scalar(1, 2), E1, Tensor.zeros(3, 2)], "level 2 has wrong shape"),
    (_sig, [Tensor.scalar(1, 2), Tensor.basis_vector(3, 1)], "level 1 has wrong shape"),
    (_sig, [E1], "level 0 has wrong shape"),
    (_log, [E1, Tensor.zeros(3, 2)], "level 2 has wrong shape"),
    (_log, [Tensor.basis_vector(3, 1)], "level 1 has wrong shape"),
    (_log, [Tensor.scalar(1, 2)], "level 1 has wrong shape"),
    (_log, [E1, E11], "level 2 is not a Lie element"),
])
def test_bad_level(build, levels, message):
    with pytest.raises(ValueError) as exc:
        build(levels)
    assert str(exc.value) == message


@pytest.mark.parametrize("levels, message", [
    ([E1, E11, Tensor.zeros(2, 2)], "level 2 is not a Lie element"),
    ([E1, Tensor.zeros(3, 2), E111], "level 2 has wrong shape"),
])
def test_levels_are_checked_in_level_order(levels, message):
    # each level is checked for shape, then for the Lie property, before the next
    with pytest.raises(ValueError) as exc:
        _log(levels)
    assert str(exc.value) == message


@pytest.mark.parametrize("container, first", [
    (TruncatedSignature.trivial(2, 3), 0),
    (LogSignature.zero(2, 3), 1),
])
def test_level_range(container, first):
    for k in range(first, 4):
        assert container.level(k) is container.levels[k - first]
    for k in (first - 1, 4):
        with pytest.raises(ValueError) as exc:
            container.level(k)
        assert str(exc.value) == f"level {k} outside {first}..3"


def test_from_levels_counts_from_the_first_level():
    s = TruncatedSignature.from_levels([Tensor.scalar(1, 2), E1], 2)
    assert (s.max_level, s.levels) == (1, (Tensor.scalar(1, 2), E1))
    l = LogSignature.from_levels([E1, AREA], 2)
    assert (l.max_level, l.levels) == (2, (E1, AREA))
    assert LogSignature.from_levels([], 2) == LogSignature.zero(2, 0)
    with pytest.raises(ValueError, match="max_level must be >= 0"):
        TruncatedSignature.from_levels([], 2)


@pytest.mark.parametrize("cls, container", [
    (TruncatedSignature, TruncatedSignature.from_levels([Tensor.scalar(1, 2), E1, Tensor.zeros(2, 2)], 2)),
    (LogSignature, LogSignature.from_levels([E1, AREA], 2)),
])
def test_dataclass_behaviour(cls, container):
    assert [f.name for f in dataclasses.fields(cls)] == ["dim", "max_level", "levels"]
    assert repr(container) == f"{cls.__name__}(dim=2, max_level={container.max_level}, levels={container.levels!r})"
    twin = cls(container.dim, container.max_level, tuple(container.levels))
    assert twin == container and twin is not container
    assert hash(twin) == hash(container) == hash((container.dim, container.max_level, container.levels))
    assert container != (container.dim, container.max_level, container.levels)
    with pytest.raises(dataclasses.FrozenInstanceError):
        container.dim = 3


def test_log_and_signature_with_the_same_fields_differ():
    # levels 0..0 and levels 1..1 cannot coincide, so compare instances
    # built with equal fields by bypassing validation
    s = TruncatedSignature.trivial(2, 1)
    l = object.__new__(LogSignature)
    for name in ("dim", "max_level", "levels"):
        object.__setattr__(l, name, getattr(s, name))
    assert s != l and l != s


def test_truncate_and_the_container_helpers():
    l = LogSignature.from_levels([E1, AREA], 2)
    assert l.truncate(2) is l
    assert l.truncate(1) == LogSignature.from_levels([E1], 2)
    assert l.truncate(3) == LogSignature.from_levels([E1, AREA, Tensor.zeros(3, 2)], 2)
    assert not l.is_zero and l.truncate(0).is_zero
    assert TruncatedSignature.trivial(2, 2).constant_term == 1
