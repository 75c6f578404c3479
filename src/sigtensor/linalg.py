"""Exact rational linear algebra: matrix rank, reduced row echelon form, subspaces.

Everything works over Q and never rounds; inputs and outputs are
`fractions.Fraction`, while elimination runs on integers. Each row or vector
is scaled to integers by the lcm of its denominators, which keeps its span.
One kernel, _echelon, does every exact elimination: incremental fraction-free
(Bareiss) elimination that reads vectors one at a time, stops once the span
is full, and keeps every entry a minor of the input, so integers stay
small. integer_rank counts its rows; subspaces, inclusion tests and rref read its
rows; conciseness.sliced_echelons feeds it a tensor's (or its live-letter
slice's) first integer fibers and, when they do not span, the fibers at the
pivot columns of the unfolding, which come from _echelon too, and sums the
modes' rows with it again. Fractions appear only when the echelon's at most
d rows become the canonical RREF basis (Subspace._of_echelon);
Subspace.full(d) is built once per d and shared.

The rank bounds in `ranks` take their ranks from _rank_mod_p instead: the rank
mod the prime P = 1048573, each row one packed int of 64-bit residue fields.
It never exceeds the rank over Q, so a bound it proves is a lower bound: a
matrix whose rank mod P reaches it has a nonzero minor of that size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import graded

Vector = tuple[Fraction, ...]
MatrixRows = Sequence[Sequence[Fraction]]
Echelon = list[tuple[int, list[int]]]  # (pivot column, row) pairs from _echelon


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
    """Rank of an integer matrix whose rows share one length: its echelon row count."""
    return len(_echelon(rows, len(rows[0]) if rows else 0))


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
    """Integer row echelon form of the span of integer vectors of length n,
    by incremental fraction-free (Bareiss) elimination.

    Returns (pivot column, row) pairs sorted by pivot column; each row is
    zero left of its pivot, and the pivot columns are the leftmost linearly
    independent columns. Vectors are read one at a time; each v is reduced
    against the rows in the order found, v <- (p * v - v[pc] * row) // q with
    p the row's pivot entry and q the previous row's (1 at first), even when
    v[pc] is 0. Sylvester's identity makes each division exact and each entry
    a minor of the input. A v that becomes zero is dropped; any other becomes
    a new row, pivoted at its first nonzero column. The scan stops once there
    are n rows.
    """
    found: list[tuple[int, list[int]]] = []
    for v in vectors:
        q = 1
        for pc, row in found:
            if not any(v):
                break
            p, f = row[pc], v[pc]
            v = [(p * a - f * b) // q for a, b in zip(v, row)] if f else [p * a // q for a in v]
            q = p
        pivot = next(compress(count(), v), None)
        if pivot is None:
            continue
        found.append((pivot, v))
        if len(found) == n:
            break
    return sorted(found, key=itemgetter(0))


P = 1048573  # the largest prime below 2^20: r steps keep a field below r * P^2 + P < 2^64 for r < 2^24
_MASK = (1 << 64) - 1


def _pack(residues: Sequence[int]) -> int:
    """Residues mod P as one int, entry j in the 64-bit field at bit 64 j."""
    return int.from_bytes(graded.little_endian(array("Q", residues)).tobytes(), "little")


def _unpack(v: int, n: int) -> array:
    """The n 64-bit fields of a packed int, entry j from bit 64 j."""
    return graded.little_endian(array("Q", v.to_bytes(8 * n, "little")))


def _rank_mod_p(rows: Sequence[Sequence[int]], n: int) -> int:
    """Rank mod P of integer rows of length n: at most their rank r over Q, as
    a minor that is nonzero mod P is a nonzero integer, and equal unless P
    divides every r x r minor.

    Each row is reduced mod P and packed into one int (_pack). Each found row
    is kept reduced, with the inverse of its pivot entry; a step against it
    reads the vector's field at the pivot column, f = field / pivot mod P, and
    adds (P - f) times the row to the whole int, which clears that field mod P.
    Fields grow without carries (see P), so a vector is unpacked and reduced
    once, after its last step, and pivoted at its first nonzero residue. The
    scan stops at min(len(rows), n) found rows."""
    found: list[tuple[int, int, int]] = []  # (shift of the pivot field, inverse of the pivot, row)
    for row in rows:
        v = _pack([x % P for x in row])
        for shift, inv, r in found:
            f = (v >> shift & _MASK) * inv % P
            if f:
                v += (P - f) * r
        residues = [x % P for x in _unpack(v, n)]
        pivot = next(compress(count(), residues), None)
        if pivot is None:
            continue
        found.append((64 * pivot, pow(residues[pivot], -1, P), _pack(residues)))
        if len(found) == n:
            break
    return len(found)


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
        return Subspace._of_echelon(_echelon(_scaled_vectors(vectors, ambient_dim), ambient_dim), ambient_dim)

    @staticmethod
    def _of_echelon(rows: Echelon, ambient_dim: int) -> "Subspace":
        """The span of echelon rows from _echelon, in RREF."""
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
