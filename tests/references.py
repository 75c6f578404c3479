"""Fraction references shared by the cross-checks, each written once. None
calls a sigtensor kernel: entries are read through Tensor indexing, one
multi-index at a time, and eliminated over Fraction, so a kernel is never
checked against itself. Also the strategies that several modules draw
from, so their examples stay the same wherever they are drawn.

pytest collects only test_*.py files; the test modules import this one."""

from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from sigtensor import Path, Tensor

# small rationals with denominators up to 4, so paths exercise the D^k scaling
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def paths(draw, max_dim=3, max_segments=4):
    d = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_segments))
    return Path.from_increments([[draw(rationals) for _ in range(d)] for _ in range(m)], dim=d)


def reference_rref(rows) -> list[list[Fraction]]:
    """Gauss-Jordan elimination over Fraction: unit pivots, pivot columns
    cleared above and below, zero rows dropped."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m[:r]


def reference_rank(rows) -> int:
    """The row count of the Fraction RREF."""
    return len(reference_rref(rows))


def reference_flattening(t: Tensor, part) -> list[list[Fraction]]:
    """The flattening along (part, complement), 1-based modes, read entry by
    entry through Tensor indexing. Along (mode,) its columns are the mode
    fibers."""
    rest = [p for p in range(1, t.order + 1) if p not in part]
    letters = range(1, t.dim + 1)

    def entry(row, col):
        index = [0] * t.order
        for p, i in list(zip(part, row)) + list(zip(rest, col)):
            index[p - 1] = i
        return t[tuple(index)]

    return [[entry(r, c) for c in product(letters, repeat=len(rest))] for r in product(letters, repeat=len(part))]


def reference_slice(t: Tensor, letters) -> Tensor:
    """The subtensor at letters^k, 1-based letters in the given order, read
    entry by entry through Tensor indexing."""
    return Tensor.from_entries(t.order, len(letters), [t[index] for index in product(letters, repeat=t.order)])


def reference_violation(t: Tensor, positions, sign: int):
    """First pair (I, swap(I)) with t[swap(I)] != sign * t[I], scanning the
    positions in order and, at each, every multi-index with I[pos] <
    I[pos+1] in lexicographic order; for sign -1 then every I with I[pos]
    == I[pos+1] and t[I] != 0."""
    for pos in positions:
        for index in t.indices():
            if index[pos] < index[pos + 1]:
                swapped = index[:pos] + (index[pos + 1], index[pos]) + index[pos + 2 :]
                if t[swapped] != sign * t[index]:
                    return (index, swapped)
        if sign == -1:
            for index in t.indices():
                if index[pos] == index[pos + 1] and t[index] != 0:
                    return (index, index)
    return None
