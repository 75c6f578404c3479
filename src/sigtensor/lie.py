"""Free Lie elements, log-signatures, and the exp/log correspondence.

Level k of a log-signature lives in Lie^k(V), the degree-k part of the free
Lie algebra inside the tensor algebra. Membership is decided by the
Dynkin-Specht-Wever criterion: the left-to-right bracketing operator fixes
Lie^k up to the factor k. The exponential of a log-signature is a truncated
signature; its level-k component splits over partitions of k into the
f_lambda summands, and the span of each summand is the Thrall module
W_lambda.

The Dynkin check, log and exp run in the scaled-integer kernel of `graded`
on each level's integer numerators over its one denominator (t.nums, t.den).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence

from . import graded
from .signatures import TruncatedSignature, _Graded
from .tensors import Tensor, tensor_product


def lie_bracket(a: Tensor, b: Tensor) -> Tensor:
    """[a, b] = a (x) b - b (x) a."""
    if a.dim != b.dim:
        raise ValueError("tensor dimension mismatch")
    return tensor_product(a, b) - tensor_product(b, a)


def dynkin_map(t: Tensor) -> Tensor:
    """Left-to-right bracketing: e_{i1} (x) ... (x) e_{ik} goes to
    [...[[e_{i1}, e_{i2}], e_{i3}], ..., e_{ik}], extended linearly.

    Computed on integer numerators by the kernel's k - 1 block-transpose
    passes, O(k d^k) instead of expanding 2^(k-1) terms.
    """
    if t.order == 0:
        raise ValueError("the bracketing operator needs order >= 1")
    return Tensor._of_level(t.order, t.dim, (graded.dynkin(t.nums, t.dim, t.order), t.den))


def is_lie_element(t: Tensor) -> bool:
    """Dynkin-Specht-Wever: t is in Lie^k(V) iff D(t) == k * t, compared on
    the integer numerators over the common denominator of t."""
    if t.order == 0:
        raise ValueError("order-0 tensors are not graded Lie elements")
    k = t.order
    return graded.dynkin(t.nums, t.dim, k) == [k * x for x in t.nums]


class LogSignature(_Graded):
    """Levels 1..K of a completed free Lie algebra element.

    Construction validates every level against the Dynkin criterion, since
    the structural results on signatures all assume genuine Lie levels.
    """

    first = 1

    def _check_level(self, k: int, t: Tensor) -> None:
        if not is_lie_element(t):
            raise ValueError(f"level {k} is not a Lie element")

    @staticmethod
    def zero(dim: int, max_level: int) -> "LogSignature":
        return LogSignature(dim, max_level, tuple(Tensor.zeros(k, dim) for k in range(1, max_level + 1)))

    @property
    def is_zero(self) -> bool:
        return all(t.is_zero for t in self.levels)

    def truncate(self, level: int) -> "LogSignature":
        """Levels 1..level: higher levels dropped, missing ones zero. Level k
        of exp only involves log levels <= k, so exp(l.truncate(K)) is exp(l)
        truncated (or zero-padded) at K exactly. The kept levels passed the
        Dynkin check in self, and zero is a Lie element, so no level is
        checked again."""
        if level == self.max_level:
            return self
        if level < 0:
            raise ValueError("max_level must be >= 0")
        pad = tuple(Tensor._of_level(k, self.dim, ([0] * self.dim**k, 1)) for k in range(self.max_level + 1, level + 1))
        l = LogSignature.__new__(LogSignature)
        l.__dict__.update(dim=self.dim, max_level=level, levels=self.levels[:level] + pad)
        return l


def _truncated_product(x: list[graded.Level], c: Fraction, u: list[graded.Level], dim: int) -> list[graded.Level]:
    """One Horner step: levels 1..n of x (x) (c + u), for u given as levels
    1..n-1 and x as levels 1..K (K >= n) of constant-term-0 elements."""
    n = len(u) + 1
    return graded.product([([0], 1)] + x[:n], [([c.numerator], c.denominator)] + u, dim)[1:]


def _series(x: list[graded.Level], coeffs: Sequence[Fraction], dim: int) -> list[graded.Level]:
    """sum_t c_t x^(x)t over t = 1..K for x given as levels 1..K, by
    Horner's rule: u = c_K x, then u = x (x) (c_j + u) for j = K-1..1.
    Step j only keeps the K-j+1 levels that the later steps read."""
    u: list[graded.Level] = []
    for c in reversed(coeffs):
        u = _truncated_product(x, c, u, dim)
    return u


def exp_log_signature(l: LogSignature) -> TruncatedSignature:
    """Exponential series exp(T) = sum T^(x)n / n!, truncated at K.

    Level k of the result equals the sum over all compositions
    (a_1, ..., a_t) of k of T_(a_1) (x) ... (x) T_(a_t) / t!.
    """
    d, K = l.dim, l.max_level
    x = [(t.nums, t.den) for t in l.levels]
    acc = _series(x, [Fraction(1, factorial(n)) for n in range(1, K + 1)], d)
    levels = (Tensor._of_level(k, d, a) for k, a in enumerate(acc, start=1))
    return TruncatedSignature(d, K, (Tensor.scalar(1, d), *levels))


def log_signature(s: TruncatedSignature) -> LogSignature:
    """Truncated logarithm log(1 + N) = sum (-1)^(t+1) N^(x)t / t.

    Requires constant term 1. The result is validated level by level, so a
    group-like input (one satisfying the shuffle identity) yields a genuine
    LogSignature and anything else is rejected.
    """
    if s.constant_term != 1:
        raise ValueError("log needs constant term 1")
    d, K = s.dim, s.max_level
    x = [(level.nums, level.den) for level in s.levels[1:]]
    acc = _series(x, [Fraction((-1) ** (t + 1), t) for t in range(1, K + 1)], d)
    return LogSignature(d, K, tuple(Tensor._of_level(k, d, a) for k, a in enumerate(acc, start=1)))


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be weakly decreasing")

    @staticmethod
    def of(*parts: int) -> "Partition":
        return Partition(tuple(sorted(parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def multiplicity(self, i: int) -> int:
        return self.parts.count(i)

    def distinct_permutations(self) -> list[tuple[int, ...]]:
        return sorted(set(itertools.permutations(self.parts)))

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions_of(k: int, max_part: int | None = None) -> Iterable[Partition]:
    """All partitions of k, largest part first within each partition."""
    if max_part is None:
        max_part = k
    if k == 0:
        yield Partition(())
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions_of(k - first, first):
            yield Partition((first,) + rest.parts)


def f_lambda(l: LogSignature, lam: Partition) -> Tensor:
    """The lambda-component of exp at level k = sum(lambda): the sum over all
    distinct orderings (a_1, ..., a_t) of lambda of T_(a_1) (x) ... (x)
    T_(a_t) / t!."""
    k = lam.total
    if k > l.max_level:
        raise ValueError(f"partition total {k} exceeds truncation {l.max_level}")
    d = l.dim
    t = len(lam.parts)
    acc = Tensor.zeros(k, d)
    coeff = Fraction(1, factorial(t))
    for ordering in lam.distinct_permutations():
        prod = Tensor.scalar(1, d)
        for part in ordering:
            factor = l.level(part)
            if factor.is_zero:
                prod = None
                break
            prod = tensor_product(prod, factor)
        if prod is not None:
            acc = acc + prod.scale(coeff)
    return acc


def thrall_forced_zero(lam: Partition, k: int) -> bool:
    """True when membership of a signature level in W_lambda forces it to be
    zero: lambda has two distinct entries and some part divides k.

    Sufficient but not necessary; e.g. (2,3,6) at k=11 has no part dividing
    11, yet contains no nonzero signature either.
    """
    if lam.total != k:
        raise ValueError(f"partition sums to {lam.total}, not {k}")
    if len(set(lam.parts)) < 2:
        return False
    return any(k % p == 0 for p in set(lam.parts))


def pure_volume_check(s: TruncatedSignature, n: int, k0: int) -> bool:
    """Decide, from level k0 up to the truncation, whether s looks like the
    signature of a pure n-volume: level hn equals T^(x)h / h! for T the
    degree-n log level, every other level zero."""
    if n < 1:
        raise ValueError("n must be positive")
    if k0 <= n:
        raise ValueError("k0 must exceed n")
    if k0 > s.max_level:
        raise ValueError("k0 exceeds the truncation level")
    # exp of the log's level n alone is T^(x)h / h! at level hn, else zero
    pure = tuple(t if k == n else Tensor.zeros(k, s.dim) for k, t in enumerate(log_signature(s).levels, start=1))
    expected = exp_log_signature(LogSignature(s.dim, s.max_level, pure))
    return all(s.level(k) == expected.level(k) for k in range(k0, s.max_level + 1))


@lru_cache(maxsize=None)
def lyndon_words(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Lyndon words of length k over {1..d} by Duval's generation."""
    if k < 1:
        raise ValueError("length must be >= 1")
    out: list[tuple[int, ...]] = []
    w = [0]
    while w:
        w[-1] += 1
        if len(w) == k and all(1 <= c <= d for c in w):
            out.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[-m])
        while w and w[-1] == d:
            w.pop()
    return tuple(sorted(out))


def lyndon_bracket(word: tuple[int, ...], d: int) -> Tensor:
    """The standard bracketing of a Lyndon word as a tensor in Lie^k.

    For |word| >= 2 the word splits as uv with v its longest proper Lyndon
    suffix, and the bracketing is [b(u), b(v)]. The resulting basis of Lie^k
    depends on this classical but non-canonical choice; it is used to build
    Lie elements, never to serialize them.
    """
    if len(word) == 1:
        return Tensor.basis_vector(d, word[0])
    for split in range(1, len(word)):
        suffix = word[split:]
        if _is_lyndon(suffix):
            return lie_bracket(lyndon_bracket(word[:split], d), lyndon_bracket(suffix, d))
    raise ValueError(f"{word} is not a Lyndon word")


def _is_lyndon(word: tuple[int, ...]) -> bool:
    return all(word < word[i:] for i in range(1, len(word)))


@lru_cache(maxsize=None)
def lie_basis(d: int, k: int) -> tuple[Tensor, ...]:
    """Bracketings of the Lyndon words of length k: a basis of Lie^k(Q^d).

    Cached: the tensors are immutable and the bracketings are costly to
    rebuild inside randomized harnesses.
    """
    return tuple(lyndon_bracket(w, d) for w in lyndon_words(d, k))
