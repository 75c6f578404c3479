"""Exact rational linear algebra: matrix rank, reduced row echelon form, subspaces.

Everything works over Q with `fractions.Fraction` entries and never rounds.
Every rank goes through one kernel, integer_rank: fraction-free (Bareiss)
elimination on integer rows, so intermediate values stay integral and
small. matrix_rank scales Fraction rows to integers before calling it, and
the flattening bounds in `ranks` call it on integer numerators directly.
RREF and subspaces stay in Fraction because subspace bases are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    The rows must share one length; the list and its rows are not modified.
    Each step takes a row with a nonzero leading entry as pivot p and
    replaces every other row r by the tail of (p * r - r[0] * pivot) divided
    by the previous pivot, which Sylvester's identity keeps exact. Rows that
    become zero are dropped: a zero row stays zero, and no other row's
    update reads it. A leading column with no nonzero entry is cut off.
    """
    rank, prev = 0, 1
    rows = [r for r in rows if any(r)]
    while rows:
        lead = next((i for i, r in enumerate(rows) if r[0]), None)
        if lead is None:
            rows = [r[1:] for r in rows]
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
        rank += 1
    return rank


def matrix_rank(rows: MatrixRows) -> int:
    """Exact rank over Q (hence over R and C). Each row is scaled to integers
    by the lcm of its denominators, which keeps the row space, and the
    result goes to integer_rank."""
    m = []
    for row in rows:
        fracs = [as_fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs))
        m.append([f.numerator * (scale // f.denominator) for f in fracs])
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return integer_rank(m)


def rref(rows: MatrixRows) -> list[list[Fraction]]:
    """Reduced row echelon form over Fraction; zero rows are dropped."""
    m = [[as_fraction(x) for x in row] for row in rows]
    if not m:
        return []
    n_cols = len(m[0])
    if any(len(r) != n_cols for r in m):
        raise ValueError("ragged matrix")
    out: list[list[Fraction]] = []
    n_rows = len(m)
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    for row in m:
        if any(x != 0 for x in row):
            out.append(row)
    return out


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
        """Incremental elimination: each vector is reduced against the rows
        collected so far, so long fiber lists cost little and a full-rank
        span exits early."""
        rows: list[tuple[int, list[Fraction]]] = []  # (pivot col, unit-pivot row)
        for v in vectors:
            cur = [as_fraction(x) for x in v]
            if len(cur) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            for pc, row in rows:
                f = cur[pc]
                if f != 0:
                    cur = [a - f * b for a, b in zip(cur, row)]
            pivot = next((j for j, x in enumerate(cur) if x != 0), None)
            if pivot is None:
                continue
            pv = cur[pivot]
            rows.append((pivot, [x / pv for x in cur]))
            rows.sort(key=lambda item: item[0])
            if len(rows) == ambient_dim:
                return Subspace.full(ambient_dim)
        for i in reversed(range(len(rows))):
            pc, row = rows[i]
            for j in range(i):
                f = rows[j][1][pc]
                if f != 0:
                    rows[j] = (rows[j][0], [a - f * b for a, b in zip(rows[j][1], row)])
        return Subspace(ambient_dim, tuple(tuple(row) for _, row in rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
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
        v = as_vector(vector)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        residual = list(v)
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x != 0)
            if residual[lead] != 0:
                f = residual[lead]
                residual = [a - f * b for a, b in zip(residual, row)]
        return all(x == 0 for x in residual)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(list(self.basis) + list(other.basis), self.ambient_dim)
