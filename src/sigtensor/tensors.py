"""Dense order-k tensors over Q with exact entries.

Entries are stored flat in lexicographic order of the multi-index
(i_1, ..., i_k), i_j in {1..d}, with i_1 slowest. That makes a flattening
along a contiguous prefix a pure reshape; general index subsets go through
an explicit index map.

Tensor owns this representation: integer numerators `nums` in that order
over one denominator `den` > 0 with gcd(den, *nums) == 1, a pair unique to
the tensor, so equality and hashing compare fields. It is the level format
of the kernel in `graded`, whose output Tensor._of_level wraps. `entries`
gives the values as Fractions, built on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from . import graded
from .linalg import as_fraction, as_vector, integer_rank, matrix_rank

MultiIndex = tuple[int, ...]


@dataclass(frozen=True, init=False)
class Tensor:
    order: int
    dim: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, order: int, dim: int, entries: Sequence[Fraction]):
        if order < 0:
            raise ValueError("order must be >= 0")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if len(entries) != dim**order:
            raise ValueError(
                f"expected {dim**order} entries for order {order}, "
                f"dim {dim}; got {len(entries)}"
            )
        try:
            nums, den = graded.from_fractions(entries)
        except AttributeError:
            raise TypeError("tensor entries must be ints or Fractions") from None
        # over the lcm of reduced denominators the pair is already reduced
        self.__dict__.update(order=order, dim=dim, nums=tuple(nums), den=den)

    @staticmethod
    def _of_level(order: int, dim: int, level: graded.Level) -> "Tensor":
        """The tensor of an unreduced kernel level (nums, den); unchecked."""
        nums, den = graded.reduced(*level)
        t = Tensor.__new__(Tensor)
        t.__dict__.update(order=order, dim=dim, nums=tuple(nums), den=den)
        return t

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        if self.den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(n, self.den) for n in self.nums)

    @staticmethod
    def from_entries(order: int, dim: int, entries: Iterable) -> "Tensor":
        return Tensor(order, dim, tuple(as_fraction(x) for x in entries))

    @staticmethod
    def zeros(order: int, dim: int) -> "Tensor":
        return Tensor(order, dim, (Fraction(0),) * dim**order)

    @staticmethod
    def scalar(value, dim: int) -> "Tensor":
        """Order-0 tensor holding a single scalar."""
        return Tensor(0, dim, (as_fraction(value),))

    @staticmethod
    def basis_vector(dim: int, letter: int) -> "Tensor":
        return Tensor.elementary([[int(j == letter) for j in range(1, dim + 1)]], dim)

    @staticmethod
    def from_vector(v: Sequence) -> "Tensor":
        vec = as_vector(v)
        return Tensor(1, len(vec), vec)

    @staticmethod
    def elementary(vectors: Sequence[Sequence], dim: int | None = None) -> "Tensor":
        """Outer product v_1 (x) ... (x) v_k of the given vectors."""
        vecs = [as_vector(v) for v in vectors]
        if dim is None:
            if not vecs:
                raise ValueError("need dim for an order-0 elementary tensor")
            dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise ValueError("all factor vectors must have the same dimension")
        return Tensor._of_level(len(vecs), dim, graded.accumulate([(Fraction(1), list(map(graded.from_fractions, vecs)))], dim, len(vecs)))

    def offset(self, index: MultiIndex) -> int:
        if len(index) != self.order:
            raise ValueError(f"multi-index arity {len(index)} != order {self.order}")
        off = 0
        for i in index:
            if not 1 <= i <= self.dim:
                raise ValueError(f"index letter {i} out of range 1..{self.dim}")
            off = off * self.dim + (i - 1)
        return off

    def __getitem__(self, index: MultiIndex) -> Fraction:
        return self.entries[self.offset(index)]

    def indices(self):
        """All multi-indices in storage (lexicographic) order."""
        return itertools.product(range(1, self.dim + 1), repeat=self.order)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, -1)

    def _combine(self, other: "Tensor", sign: int) -> "Tensor":
        """self + sign * other, one integer combination over lcm(den, other.den)."""
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return Tensor._of_level(self.order, self.dim, ([x * a + y * b for x, y in zip(self.nums, other.nums)], den))

    def __neg__(self) -> "Tensor":
        return Tensor._of_level(self.order, self.dim, ([-n for n in self.nums], self.den))

    def scale(self, c) -> "Tensor":
        f = as_fraction(c)
        return Tensor._of_level(self.order, self.dim, ([f.numerator * n for n in self.nums], f.denominator * self.den))

    def __rmul__(self, c) -> "Tensor":
        return self.scale(c)

    def _check_same_shape(self, other: "Tensor"):
        if self.order != other.order or self.dim != other.dim:
            raise ValueError("tensor shape mismatch")


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    if a.dim != b.dim:
        raise ValueError("tensor dimension mismatch")
    return Tensor._of_level(a.order + b.order, a.dim, (graded.outer(a.nums, b.nums), a.den * b.den))


@dataclass(frozen=True)
class Flattening:
    """A tensor reshaped into a matrix along an index bipartition.

    Row index runs over the multi-indices at `row_indices` (sorted, 1-based
    positions), column index over the complement; both lexicographic.
    """

    source_order: int
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return matrix_rank(self.matrix)


def mode_offsets(positions: Sequence[int], order: int, dim: int) -> list[int]:
    """Storage offsets of the multi-indices that vary only at `positions`
    (1-based) and hold letter 1 elsewhere, in lexicographic order of the
    letters at `positions`. The entry at row r, column c of a flattening
    sits at offset mode_offsets(rows)[r] + mode_offsets(cols)[c]."""
    offs = [0]
    for p in positions:
        stride = dim ** (order - p)
        offs = [o + i * stride for o in offs for i in range(dim)]
    return offs


def flatten(t: Tensor, rows: Iterable[int]) -> Flattening:
    """Flatten along the bipartition (rows, complement); both parts nonempty."""
    row_idx = tuple(sorted(set(rows)))
    all_idx = set(range(1, t.order + 1))
    if not row_idx or not set(row_idx) <= all_idx:
        raise ValueError("row indices must be a nonempty subset of 1..order")
    col_idx = tuple(sorted(all_idx - set(row_idx)))
    if not col_idx:
        raise ValueError("row indices must be a proper subset of 1..order")
    cols = mode_offsets(col_idx, t.order, t.dim)
    matrix = tuple(tuple(t.entries[r + c] for c in cols) for r in mode_offsets(row_idx, t.order, t.dim))
    return Flattening(t.order, row_idx, col_idx, matrix)


def unflatten(f: Flattening, dim: int) -> Tensor:
    """Read a Flattening back into the tensor it came from."""
    entries = [Fraction(0)] * dim**f.source_order
    cols = mode_offsets(f.col_indices, f.source_order, dim)
    for r, row in zip(mode_offsets(f.row_indices, f.source_order, dim), f.matrix):
        for c, value in zip(cols, row):
            entries[r + c] = value
    return Tensor(f.source_order, dim, tuple(entries))


def permute_modes(t: Tensor, perm: Sequence[int]) -> Tensor:
    """Relabel modes: output entry at (i_{perm[1]}, ..., i_{perm[k]}) is the
    input entry at (i_1, ..., i_k). perm is 1-based and must be a bijection.
    Output letter j is input letter perm[j], so mode_offsets(perm) lists the
    input offsets in output storage order."""
    k = t.order
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("perm must be a bijection on 1..order")
    return Tensor._of_level(k, t.dim, ([t.nums[o] for o in mode_offsets(perm, k, t.dim)], t.den))


def gl_act(m: Sequence[Sequence], t: Tensor) -> Tensor:
    """Apply an invertible d x d matrix to every mode of t."""
    d = t.dim
    rows = [as_vector(r) for r in m]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"matrix must be {d}x{d}")
    # the matrix is ints over one scale: each contraction multiplies den by it
    ints, scale = graded.from_fractions([x for r in rows for x in r])
    if integer_rank([ints[r * d : (r + 1) * d] for r in range(d)]) != d:
        raise ValueError("matrix is singular; the action requires GL")
    nums = t.nums
    # Contract one mode at a time; mode 1 is slowest so its stride is d^(k-1).
    for mode in range(t.order):
        stride = d ** (t.order - 1 - mode)
        block = stride * d
        new = [0] * len(nums)
        for base in range(0, len(nums), block):
            for off in range(stride):
                col = nums[base + off : base + block : stride]
                for r in range(d):
                    new[base + r * stride + off] = sum(map(mul, ints[r * d : (r + 1) * d], col))
        nums = new
    return Tensor._of_level(t.order, d, (nums, t.den * scale**t.order))


def koszul_flatten(t: Tensor, pivot_mode: int) -> tuple[tuple[Fraction, ...], ...]:
    """Koszul flattening of an order-3 tensor.

    With U the pivot mode and (V, W) the remaining modes in order, this is
    the matrix of U* (x) W -> V (x) wedge^2 W built from the usual flattening
    T_U: U* -> V (x) W followed by skewing the two W factors. Rows are indexed
    by (u, w), columns by (v, {a < b}), so the shape is d^2 x d*C(d,2).
    """
    if t.order != 3:
        raise ValueError("Koszul flattening needs an order-3 tensor")
    if pivot_mode not in (1, 2, 3):
        raise ValueError("pivot_mode must be 1, 2, or 3")
    return tuple(tuple(Fraction(x, t.den) for x in row) for row in _koszul_rows(t.nums, t.dim, pivot_mode))


def _koszul_rows(e: Sequence[int], d: int, pivot_mode: int) -> list[list[int]]:
    """The Koszul matrix over flat entries e: over t.nums, t.den times koszul_flatten(t, pivot_mode)."""
    others = [m for m in (1, 2, 3) if m != pivot_mode]
    s_u, s_v, s_w = (d ** (3 - m) for m in (pivot_mode, *others))
    pairs = list(itertools.combinations(range(d), 2))
    # skewing sends T[u, v, x] to column (v, {x, w}), signed + if x < w, - if x > w
    return [
        [
            e[u * s_u + v * s_v + a * s_w] if w == b else -e[u * s_u + v * s_v + b * s_w] if w == a else 0
            for v in range(d)
            for a, b in pairs
        ]
        for u in range(d)
        for w in range(d)
    ]
