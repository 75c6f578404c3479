"""The Horner kernel for exponential-type series against the evaluations it
replaced, kept here as references: log and exp as sums of full truncated
powers, S_{k,alpha} as one weighted elementary term per composition of k,
and the pure-volume check as a loop over the powers of the degree-n log
level."""

import random
from fractions import Fraction
from itertools import combinations, repeat
from math import factorial, lcm
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from sigtensor import (
    LogSignature,
    Path,
    Tensor,
    TruncatedSignature,
    exp_log_signature,
    log_signature,
    pure_volume_check,
    pwl_signature,
    s_k_alpha,
    tensor_product,
)
from sigtensor import graded
from sigtensor.harness import random_lie_level, random_log_signature

from references import paths, rationals

SETTINGS = settings(max_examples=40, deadline=None)


def axpy(acc: graded.Level, c: Fraction, x: graded.Level) -> graded.Level:
    """acc + c * x, reduced."""
    (na, da), (nx, dx) = acc, x
    q = c.denominator * dx
    den = lcm(da, q)
    sa, sx = den // da, c.numerator * (den // q)
    return graded.reduced(list(map(add, map(mul, na, repeat(sa)), map(mul, nx, repeat(sx)))), den)


def _ref_truncated_product(a, b, dim):
    """Product of two constant-term-0 elements given as levels 1..K."""
    zero = ([0], 1)
    return graded.product([zero] + a, [zero] + b, dim)[1:]


def ref_exp(l: LogSignature) -> TruncatedSignature:
    d, K = l.dim, l.max_level
    x = [(t.nums, t.den) for t in l.levels]
    acc = power = x
    for n in range(2, K + 1):
        power = _ref_truncated_product(power, x, d)
        acc = [axpy(s, Fraction(1, factorial(n)), p) for s, p in zip(acc, power)]
    levels = (Tensor._of_level(k, d, a) for k, a in enumerate(acc, start=1))
    return TruncatedSignature(d, K, (Tensor.scalar(1, d), *levels))


def ref_log(s: TruncatedSignature) -> LogSignature:
    d, K = s.dim, s.max_level
    x = [(level.nums, level.den) for level in s.levels[1:]]
    acc = power = x
    for t in range(2, K + 1):
        power = _ref_truncated_product(power, x, d)
        acc = [axpy(a, Fraction((-1) ** (t + 1), t), p) for a, p in zip(acc, power)]
    return LogSignature(d, K, tuple(Tensor._of_level(k, d, a) for k, a in enumerate(acc, start=1)))


def _compositions(total, parts):
    for bars in combinations(range(total + parts - 1), parts - 1):
        cuts = (-1,) + bars + (total + parts - 1,)
        yield tuple(cuts[i + 1] - cuts[i] - 1 for i in range(parts))


def ref_s_k_alpha(vs, k, alpha) -> Tensor:
    d = len(vs[0])
    terms = []
    for parts in _compositions(k, len(vs)):
        weight = factorial(parts[0] + alpha)
        for a in parts[1:]:
            weight *= factorial(a)
        terms.append((Fraction(1, weight), [graded.from_fractions(v) for v, a in zip(vs, parts) for _ in range(a)]))
    return Tensor._of_level(k, d, graded.accumulate(terms, d, k))


def ref_pure_volume(s: TruncatedSignature, n: int, k0: int) -> bool:
    t_n = ref_log(s).level(n)
    for k in range(k0, s.max_level + 1):
        if k % n == 0:
            expected = Tensor.scalar(1, s.dim)
            for _ in range(k // n):
                expected = tensor_product(expected, t_n)
            if s.level(k) != expected.scale(Fraction(1, factorial(k // n))):
                return False
        elif not s.level(k).is_zero:
            return False
    return True


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@SETTINGS
@given(paths(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**32))
def test_log_matches_power_series_also_where_it_raises(path, level, bad, seed):
    """A group-like input gives the same log; one perturbed at level `bad`
    (when 2 <= bad <= level) is rejected at the same level by both."""
    sig = pwl_signature(path, level)
    if 2 <= bad <= level:
        rng = random.Random(seed)
        noise = Tensor(bad, path.dim, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(path.dim**bad)])
        levels = list(sig.levels)
        levels[bad] = levels[bad] + noise
        sig = TruncatedSignature(path.dim, level, tuple(levels))
    assert _outcome(log_signature, sig) == _outcome(ref_log, sig)


def test_log_of_a_non_group_like_input_raises_at_the_first_bad_level():
    sig = pwl_signature(Path.from_increments([[1, 2], [-1, 3]]), 4)
    levels = list(sig.levels)
    levels[3] = levels[3] + Tensor.from_entries(3, 2, [1] + [0] * 7)  # e1 (x) e1 (x) e1 is not Lie
    bad = TruncatedSignature(2, 4, tuple(levels))
    with pytest.raises(ValueError, match="level 3 is not a Lie element"):
        log_signature(bad)
    with pytest.raises(ValueError, match="level 3 is not a Lie element"):
        ref_log(bad)


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32))
def test_exp_matches_power_series(d, level, seed):
    l = random_log_signature(random.Random(seed), d, level)
    assert exp_log_signature(l) == ref_exp(l)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 4), st.integers(2, 5), st.integers(0, 3), st.data())
def test_s_k_alpha_matches_composition_sum(d, m, k, alpha, data):
    vs = [tuple(data.draw(rationals) for _ in range(d)) for _ in range(m)]
    assert s_k_alpha(vs, k, alpha) == ref_s_k_alpha(vs, k, alpha)


@SETTINGS
@given(st.integers(1, 3), st.integers(2, 5), st.data())
def test_pure_volume_matches_power_loop(d, level, data):
    """Inputs are exponentials of a lone degree-n Lie level (pure by
    construction) with, when drawn, another Lie level added."""
    n = data.draw(st.integers(1, level - 1))
    k0 = data.draw(st.integers(n + 1, level))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    extra = data.draw(st.sampled_from([None, *range(1, level + 1)]))
    levels = [random_lie_level(rng, d, k, 2) if k in (n, extra) else Tensor.zeros(k, d) for k in range(1, level + 1)]
    sig = exp_log_signature(LogSignature.from_levels(levels, d))
    assert pure_volume_check(sig, n, k0) == ref_pure_volume(sig, n, k0)
