"""Exact rational linear algebra: matrix rank, reduced row echelon form, subspaces.

Everything works over Q and never rounds; inputs and outputs are
`fractions.Fraction`, while elimination runs on integers. Each row or vector
is scaled to integers by the lcm of its denominators, which keeps its span.
Ranks and pivot columns come from _pivot_columns, fraction-free (Bareiss)
elimination, so intermediate values stay integral and small; the rank
bounds in `ranks` call integer_rank on integer numerators directly.
Subspaces, inclusion tests and rref come from _echelon, an incremental integer
echelon form that reads vectors one at a time and stops once the span is full.
mode_subspaces feeds it a tensor's first d integer fibers and, when they do
not span, the fibers at the pivot columns of the unfolding (or of a window
of it, which conciseness cuts before calling _pivot_columns; the rank
callers always pass whole matrices). Fractions appear only when the
echelon's at most d rows become the canonical RREF basis; Subspace.full(d)
is built once per d and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, count
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import graded

Vector = tuple[Fraction, ...]
MatrixRows = Sequence[Sequence[Fraction]]


def as_fraction(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p"), or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def as_vector(entries: Iterable) -> Vector:
    return tuple(as_fraction(x) for x in entries)


def _pivot_columns(rows: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix by fraction-free (Bareiss)
    elimination: column c is a pivot iff it is not in the span of columns
    0..c-1, so the pivot columns are the first linearly independent ones.

    The rows must share one length; the list and its rows are not modified.
    Each step takes the first row with a nonzero leading entry as pivot p and
    replaces every other row r by the tail of (p * r - r[0] * pivot) divided
    by the previous pivot, which Sylvester's identity keeps exact. Rows that
    become zero are dropped: a zero row stays zero, and no other row's
    update reads it. When no row has a nonzero leading entry, every row is
    cut at the first column where any row is nonzero, in one slice.
    """
    pivots, col, prev = [], 0, 1
    rows = [r for r in rows if any(r)]
    while rows:
        lead = next((i for i, r in enumerate(rows) if r[0]), None)
        if lead is None:
            # every kept row is nonzero, so each has a first nonzero column
            skip = min(next(compress(count(), r)) for r in rows)
            rows = [r[skip:] for r in rows]
            col += skip
            continue
        pivot = rows.pop(lead)
        p, tail = pivot[0], pivot[1:]
        kept = []
        for r in rows:
            f = r[0]
            row = [(a * p - f * b) // prev for a, b in zip(r[1:], tail)]
            if any(row):
                kept.append(row)
        rows, prev = kept, p
        pivots.append(col)
        col += 1
    return pivots


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix: the number of its pivot columns."""
    return len(_pivot_columns(rows))


def _scaled(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators: integers with the same span."""
    return graded.from_fractions(as_vector(row))[0]


def _scaled_vectors(vectors: Iterable[Sequence], n: int) -> Iterator[list[int]]:
    """Each vector scaled by _scaled, read lazily; one whose length is not n is refused."""
    for v in vectors:
        w = _scaled(v)
        if len(w) != n:
            raise ValueError("vector length does not match ambient dimension")
        yield w


def _scaled_matrix(rows: MatrixRows) -> list[list[int]]:
    """Every row scaled by _scaled, which keeps the row space; a ragged matrix is refused."""
    m = [_scaled(row) for row in rows]
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def matrix_rank(rows: MatrixRows) -> int:
    """Exact rank over Q (hence over R and C): integer_rank of the scaled rows."""
    return integer_rank(_scaled_matrix(rows))


def _echelon(vectors: Iterable[Sequence[int]], n: int) -> list[tuple[int, list[int]]]:
    """Integer row echelon form of the span of integer vectors of length n.

    Returns (pivot column, row) pairs sorted by pivot column; each row is
    zero left of its pivot and its entries have gcd 1. Each vector v is
    reduced against the rows in pivot order as v <- p * v - v[pc] * row (p
    the row's pivot entry), which clears v[pc] without fractions; if
    anything is left, v divided by its gcd becomes a new row. Vectors are
    read one at a time and the scan stops once there are n rows.
    """
    rows: list[tuple[int, list[int]]] = []
    for v in vectors:
        for pc, row in rows:
            f = v[pc]
            if f:
                p = row[pc]
                v = [p * a - f * b for a, b in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        g = gcd(*v)
        rows.append((pivot, [x // g for x in v] if g != 1 else v))
        rows.sort(key=itemgetter(0))
        if len(rows) == n:
            break
    return rows


def _unit_rows(rows: list[tuple[int, list[int]]]) -> list[list[Fraction]]:
    """The reduced row echelon form of echelon rows from _echelon: each pivot
    column is cleared above its pivot, from the last pivot up, in integers;
    then every row is divided by its pivot entry."""
    rows = list(rows)
    for i in reversed(range(len(rows))):
        pc, row = rows[i]
        p = row[pc]
        for j in range(i):
            f = rows[j][1][pc]
            if f:
                rows[j] = (rows[j][0], [p * a - f * b for a, b in zip(rows[j][1], row)])
    return [[Fraction(x, row[pc]) for x in row] for pc, row in rows]


def rref(rows: MatrixRows) -> list[list[Fraction]]:
    """Reduced row echelon form over Fraction; zero rows are dropped."""
    m = _scaled_matrix(rows)
    return _unit_rows(_echelon(m, len(m[0]) if m else 0))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^d in canonical form.

    The basis rows are the RREF of any spanning set, so two subspaces are
    equal exactly when their dataclass fields are equal.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        """Each vector is scaled to integers and fed to the integer
        elimination one at a time, so a full-rank span exits early."""
        return Subspace._of_integers(_scaled_vectors(vectors, ambient_dim), ambient_dim)

    @staticmethod
    def _of_integers(vectors: Iterable[Sequence[int]], ambient_dim: int) -> "Subspace":
        """The span of integer vectors of length ambient_dim (unchecked)."""
        rows = _echelon(vectors, ambient_dim)
        if len(rows) == ambient_dim:
            return Subspace.full(ambient_dim)
        return Subspace(ambient_dim, tuple(map(tuple, _unit_rows(rows))))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    @cache  # one shared instance per dimension: a Subspace is immutable
    def full(ambient_dim: int) -> "Subspace":
        eye = [[Fraction(int(i == j)) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return Subspace(ambient_dim, tuple(tuple(r) for r in eye))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, vector: Sequence) -> bool:
        return self._absorbs([vector])

    def contains_subspace(self, other: "Subspace") -> bool:
        return self._absorbs(other.basis)

    def _absorbs(self, vectors: Sequence[Sequence]) -> bool:
        # the vectors first: one of another length is refused even if self is full
        d = self.ambient_dim
        return len(_echelon(_scaled_vectors([*vectors, *self.basis], d), d)) == self.dim

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(list(self.basis) + list(other.basis), self.ambient_dim)
