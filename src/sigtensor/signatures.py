"""Piecewise linear paths and their exact truncated signatures.

A path is stored as its list of segment increments; only increments matter
because the signature is invariant under translation and reparametrization.
Signatures are computed through Chen's identity (concatenation multiplies
signatures in the truncated tensor algebra) in the scaled-integer kernel of
`graded`: level k of a path whose increments have common denominator D is
held as integer numerators over k! * D^k, the Tensor's nums over den once
reduced. An independent oracle integrates each entry directly as an
iterated integral with per-piece polynomial arithmetic over Q, in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

from . import graded
from .linalg import Vector, as_vector
from .tensors import Tensor
from .words import Word


@dataclass(frozen=True)
class Path:
    dim: int
    increments: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.increments) < 1:
            raise ValueError("a path needs at least one increment")
        if any(len(u) != self.dim for u in self.increments):
            raise ValueError("all increments must have the path dimension")

    @staticmethod
    def from_increments(increments: Sequence[Sequence], dim: int | None = None) -> "Path":
        incs = tuple(as_vector(u) for u in increments)
        if dim is None:
            if not incs:
                raise ValueError("cannot infer dimension from an empty path")
            dim = len(incs[0])
        return Path(dim, incs)

    @property
    def segments(self) -> int:
        return len(self.increments)


@dataclass(frozen=True)
class _Graded:
    """Levels first..K, level k an order-k tensor. Each level's shape, then
    _check_level, is checked before the next, so the first bad level is reported."""

    first: ClassVar[int] = 0  # 1 in LogSignature
    dim: int
    max_level: int
    levels: tuple[Tensor, ...]

    def __post_init__(self):
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")
        if len(self.levels) != self.max_level + 1 - self.first:
            raise ValueError(f"need one tensor per level {self.first}..K")
        for k, t in enumerate(self.levels, self.first):
            if t.order != k or t.dim != self.dim:
                raise ValueError(f"level {k} has wrong shape")
            self._check_level(k, t)

    def _check_level(self, k: int, t: Tensor) -> None:
        """Validate level k beyond its shape (no check here)."""

    def level(self, k: int) -> Tensor:
        if not self.first <= k <= self.max_level:
            raise ValueError(f"level {k} outside {self.first}..{self.max_level}")
        return self.levels[k - self.first]

    @classmethod
    def from_levels(cls, levels: Sequence[Tensor], dim: int):
        return cls(dim, len(levels) - 1 + cls.first, tuple(levels))


class TruncatedSignature(_Graded):
    """Levels 0..K of a tensor-algebra element; level k is an order-k tensor.

    Signatures of paths (and exponentials of log-signatures) have constant
    term 1; the container itself allows any constant so that non-examples
    can be built in order to exercise the shuffle test.
    """

    @property
    def constant_term(self) -> Fraction:
        return self.levels[0].entries[0]

    @staticmethod
    def trivial(dim: int, max_level: int) -> "TruncatedSignature":
        """The unit of the algebra: constant 1, every other level zero."""
        levels = [Tensor.scalar(1, dim)] + [Tensor.zeros(k, dim) for k in range(1, max_level + 1)]
        return TruncatedSignature(dim, max_level, tuple(levels))


def segment_signature(v: Sequence, max_level: int) -> TruncatedSignature:
    """Signature of a single segment: level k is v^(x)k / k!."""
    vec = as_vector(v)
    return pwl_signature(Path(len(vec), (vec,)), max_level)


def chen_concat(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Chen's identity: the signature of a concatenation is the truncated
    tensor-algebra product of the signatures."""
    if a.dim != b.dim or a.max_level != b.max_level:
        raise ValueError("signatures must share dimension and truncation level")
    left = [(t.nums, t.den) for t in a.levels]
    right = [(t.nums, t.den) for t in b.levels]
    levels = (Tensor._of_level(k, a.dim, l) for k, l in enumerate(graded.product(left, right, a.dim)))
    return TruncatedSignature(a.dim, a.max_level, tuple(levels))


def pwl_signature(path: Path, max_level: int) -> TruncatedSignature:
    """Signature of a piecewise linear path: Chen's identity, with each
    segment's exponential multiplied in by the kernel's fused
    multiply-exponentiate, without being built first."""
    if max_level < 0:  # refused before the kernel's weights 1/k! meet a negative k
        raise ValueError("max_level must be >= 0")
    d = path.dim
    levels = graded.signature(path.increments, d, max_level)
    return TruncatedSignature(d, max_level, tuple(Tensor._of_level(k, d, l) for k, l in enumerate(levels)))


def iterated_integral_entry(path: Path, word: Word) -> Fraction:
    """One signature entry computed directly as an iterated integral.

    Works piece by piece: on each linear piece the r-fold inner integral is a
    polynomial in the local time, integrated exactly over Q. Deliberately
    independent of Chen's identity (and slower), so it can serve as an oracle.
    """
    for letter in word.letters:
        if not 1 <= letter <= path.dim:
            raise ValueError(f"letter {letter} out of range 1..{path.dim}")
    k = len(word)
    if k == 0:
        return Fraction(1)
    # boundary[r] is the value of the r-fold integral at the current junction
    boundary = [Fraction(1)] + [Fraction(0)] * k
    for u in path.increments:
        polys: list[list[Fraction]] = [[Fraction(1)]]
        for r in range(1, k + 1):
            speed = u[word.letters[r - 1] - 1]
            prev = polys[r - 1]
            poly = [boundary[r]] + [speed * c / (i + 1) for i, c in enumerate(prev)]
            polys.append(poly)
        boundary = [sum(poly, Fraction(0)) for poly in polys]
    return boundary[k]


def time_series_to_path(samples: Sequence[Sequence]) -> Path:
    """Consecutive differences of the samples; the base point is irrelevant
    because signatures are translation invariant."""
    pts = [as_vector(s) for s in samples]
    if len(pts) < 2:
        raise ValueError("need at least 2 samples")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("samples must share a dimension")
    incs = tuple(tuple(b - a for a, b in zip(p, q)) for p, q in zip(pts, pts[1:]))
    return Path(d, incs)
