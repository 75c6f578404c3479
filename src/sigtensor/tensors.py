"""Dense order-k tensors over Q with exact entries.

Entries are stored flat in lexicographic order of the multi-index
(i_1, ..., i_k), i_j in {1..d}, with i_1 slowest. That makes a flattening
along a contiguous prefix a pure reshape; general index subsets go through
an explicit index map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import as_fraction, as_vector, matrix_rank

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Tensor:
    order: int
    dim: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.entries) != self.dim**self.order:
            raise ValueError(
                f"expected {self.dim**self.order} entries for order {self.order}, "
                f"dim {self.dim}; got {len(self.entries)}"
            )

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
        entries: tuple[Fraction, ...] = (Fraction(1),)
        for v in vecs:
            entries = tuple(x * y for x in entries for y in v)
        return Tensor(len(vecs), dim, entries)

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
        return all(x == 0 for x in self.entries)

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.order, self.dim, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.order, self.dim, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Tensor":
        return Tensor(self.order, self.dim, tuple(-a for a in self.entries))

    def scale(self, c) -> "Tensor":
        f = as_fraction(c)
        return Tensor(self.order, self.dim, tuple(f * a for a in self.entries))

    def __rmul__(self, c) -> "Tensor":
        return self.scale(c)

    def _check_same_shape(self, other: "Tensor"):
        if self.order != other.order or self.dim != other.dim:
            raise ValueError("tensor shape mismatch")


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    if a.dim != b.dim:
        raise ValueError("tensor dimension mismatch")
    entries = tuple(x * y for x in a.entries for y in b.entries)
    return Tensor(a.order + b.order, a.dim, entries)


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
    input entry at (i_1, ..., i_k). perm is 1-based and must be a bijection."""
    k = t.order
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("perm must be a bijection on 1..order")
    inv = [0] * k
    for j, p in enumerate(perm):
        inv[p - 1] = j
    d = t.dim
    entries = [Fraction(0)] * len(t.entries)
    for index in itertools.product(range(1, d + 1), repeat=k):
        src = tuple(index[inv[j]] for j in range(k))
        off = 0
        for i in index:
            off = off * d + (i - 1)
        s_off = 0
        for i in src:
            s_off = s_off * d + (i - 1)
        entries[off] = t.entries[s_off]
    return Tensor(k, d, tuple(entries))


def gl_act(m: Sequence[Sequence], t: Tensor) -> Tensor:
    """Apply an invertible d x d matrix to every mode of t."""
    d = t.dim
    rows = [as_vector(r) for r in m]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"matrix must be {d}x{d}")
    if matrix_rank(rows) != d:
        raise ValueError("matrix is singular; the action requires GL")
    if t.order == 0:
        return t
    entries = list(t.entries)
    # Contract one mode at a time; mode 1 is slowest so its stride is d^(k-1).
    for mode in range(t.order):
        stride = d ** (t.order - 1 - mode)
        block = stride * d
        new = [Fraction(0)] * len(entries)
        for base in range(0, len(entries), block):
            for off in range(stride):
                col = [entries[base + i * stride + off] for i in range(d)]
                for r in range(d):
                    acc = Fraction(0)
                    for i in range(d):
                        if rows[r][i]:
                            acc += rows[r][i] * col[i]
                    new[base + r * stride + off] = acc
        entries = new
    return Tensor(t.order, d, tuple(entries))


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
    d = t.dim
    others = [m for m in (1, 2, 3) if m != pivot_mode]
    v_mode, w_mode = others[0], others[1]
    pairs = [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)]
    pair_pos = {p: j for j, p in enumerate(pairs)}
    n_cols = d * len(pairs)
    grid = [[Fraction(0)] * n_cols for _ in range(d * d)]
    entry = [0, 0, 0]
    for u in range(1, d + 1):
        for w in range(1, d + 1):
            row = grid[(u - 1) * d + (w - 1)]
            for v in range(1, d + 1):
                for wp in range(1, d + 1):
                    if wp == w:
                        continue
                    entry[pivot_mode - 1] = u
                    entry[v_mode - 1] = v
                    entry[w_mode - 1] = wp
                    val = t[tuple(entry)]
                    if val == 0:
                        continue
                    if wp < w:
                        col = (v - 1) * len(pairs) + pair_pos[(wp, w)]
                        row[col] += val
                    else:
                        col = (v - 1) * len(pairs) + pair_pos[(w, wp)]
                        row[col] -= val
    return tuple(tuple(r) for r in grid)
