"""Symmetry classifiers for tensors and the structural consequences that
partial symmetry has for signatures.

Partial symmetry here always means invariance under permuting the first k-1
or the last k-1 indices; other index blocks behave differently for
signatures and are rejected rather than silently accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import neg

from . import graded
from .lie import LogSignature, exp_log_signature, lie_bracket
from .linalg import as_fraction
from .tensors import Tensor

MultiIndex = tuple[int, ...]


def _multi_index(offset: int, order: int, dim: int) -> MultiIndex:
    """The multi-index stored at a flat offset (letters 1..dim)."""
    letters = []
    for _ in range(order):
        offset, r = divmod(offset, dim)
        letters.append(r + 1)
    return tuple(reversed(letters))


def _transposition_violation(t: Tensor, positions: range, sign: int) -> tuple[int, tuple[MultiIndex, MultiIndex]] | None:
    """The first position and index pair violating t[swap(I)] == sign * t[I]
    over adjacent transpositions at the given 0-based positions.

    Positions are scanned in order, each through one stream of run pairs.
    With letters a, b at pos, pos+1 and a prefix at flat offset o, the
    entries for all suffixes form a run of lo = d^(k-2-pos) entries at
    o + a*hi + b*lo, hi = d^(k-1-pos). The stream pairs the (a, b) run with
    the (b, a) run for a < b in (prefix, a, b) order, then, for sign -1,
    each diagonal run o + a*(hi + lo) with itself: compared with its own
    negation, it differs exactly where it is nonzero. A pair is compared as
    a whole, and searched entry by entry for the witness only if it differs.

    The first agreeing pair that holds a nonzero entry is evidence that the
    position holds: there the whole level with the two letters swapped is
    compared once with the level (negated for sign -1), and if they are
    equal the rest of the stream is skipped. Before that evidence, the
    pairs read are all zero or hold a violation, so a level that fails at
    its first nonzero pair, as a generic one does, builds no swapped level.
    """
    e, k, d = t.nums, t.order, t.dim  # one denominator, so numerators compare as entries
    for pos in positions:
        lo = d ** (k - 2 - pos)
        hi = lo * d
        prefixes = range(0, len(e), hi * d)
        pairs = ((o + a * hi + b * lo, o + b * hi + a * lo) for o in prefixes for a in range(d) for b in range(a + 1, d))
        if sign == -1:
            pairs = itertools.chain(pairs, ((o + a * (hi + lo),) * 2 for o in prefixes for a in range(d)))
        untried = True
        for i, j in pairs:
            x, y = e[i : i + lo], e[j : j + lo]
            if sign == -1 and any(y):  # a zero run is its own negation
                y = tuple(map(neg, y))
            if x != y:
                r = next(r for r in range(lo) if x[r] != y[r])
                return pos, (_multi_index(i + r, k, d), _multi_index(j + r, k, d))
            if untried and any(x):
                untried = False
                if graded.swap_positions(e, d, k, pos) == (e if sign == 1 else tuple(map(neg, e))):
                    break
    return None


@dataclass(frozen=True)
class SymmetryReport:
    is_symmetric: bool
    is_skew: bool
    partial: frozenset[str]  # subset of {"first_k_minus_1", "last_k_minus_1"}
    witness: tuple[MultiIndex, MultiIndex] | None


def symmetry_report(t: Tensor) -> SymmetryReport:
    """Exact membership tests against Sym^k, Lambda^k, and the two partial
    blocks. Adjacent transpositions generate each group, so they suffice.

    The witness is the first violating entry pair of the first failing flag,
    scanning flags in the order symmetric, skew, first block, last block.
    The full scan holds before its first violation p, so the first block
    (positions 0..k-3) fails there unless p = k-2 and the last (1..k-2)
    unless p = 0, the one case where it is scanned.
    """
    if t.order < 2:
        raise ValueError("symmetry needs order >= 2")
    k = t.order
    sym = _transposition_violation(t, range(k - 1), +1)
    skew = _transposition_violation(t, range(k - 1), -1)
    partial = set()
    if sym is None or sym[0] == k - 2:
        partial.add("first_k_minus_1")
    if sym is None or (sym[0] == 0 and _transposition_violation(t, range(1, k - 1), +1) is None):
        partial.add("last_k_minus_1")
    first_failure = sym or skew  # a block fails only where sym does
    return SymmetryReport(
        is_symmetric=sym is None,
        is_skew=skew is None,
        partial=frozenset(partial),
        witness=None if first_failure is None else first_failure[1],
    )


def is_symmetric(t: Tensor) -> bool:
    return _transposition_violation(t, range(t.order - 1), +1) is None


def is_skew(t: Tensor) -> bool:
    return _transposition_violation(t, range(t.order - 1), -1) is None


def brute_force_symmetric(t: Tensor) -> bool:
    """Invariance under all k! permutations; test oracle for small k."""
    k = t.order
    for perm in itertools.permutations(range(k)):
        for index in t.indices():
            if t[tuple(index[p] for p in perm)] != t[index]:
                return False
    return True


@dataclass(frozen=True)
class Sig222Params:
    """Coordinates of a 2x2x2 signature tensor: (x, y) is the degree-1 log
    level, a the area coordinate, (b, c) the two degree-3 Lie coordinates."""

    x: Fraction
    y: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_fraction(getattr(self, f.name)))

    @staticmethod
    def of(x, y, a, b, c) -> "Sig222Params":
        return Sig222Params(x, y, a, b, c)

    def log_signature(self) -> LogSignature:
        e1 = Tensor.basis_vector(2, 1)
        e2 = Tensor.basis_vector(2, 2)
        t1 = Tensor.from_vector((self.x, self.y))
        t2 = lie_bracket(e1, e2).scale(self.a)
        t3 = lie_bracket(e1, lie_bracket(e1, e2)).scale(self.b) + lie_bracket(lie_bracket(e1, e2), e2).scale(self.c)
        return LogSignature.from_levels([t1, t2, t3], 2)


def sig222_from_params(p: Sig222Params) -> Tensor:
    """The 2x2x2 signature tensor with the given log coordinates, written
    out entrywise (level 3 of the exponential)."""
    x, y, a, b, c = p.x, p.y, p.a, p.b, p.c
    # keyed in storage (lexicographic) order
    entries = {
        (1, 1, 1): x**3 / 6,
        (1, 1, 2): x**2 * y / 6 + a * x / 2 + b,
        (1, 2, 1): x**2 * y / 6 - 2 * b,
        (1, 2, 2): x * y**2 / 6 + a * y / 2 + c,
        (2, 1, 1): x**2 * y / 6 - a * x / 2 + b,
        (2, 1, 2): x * y**2 / 6 - 2 * c,
        (2, 2, 1): x * y**2 / 6 - a * y / 2 + c,
        (2, 2, 2): y**3 / 6,
    }
    return Tensor(3, 2, tuple(entries.values()))


def partial_symmetry_constraint(p: Sig222Params, side: str) -> bool:
    """Closed-form condition for a 2x2x2 signature tensor to be partially
    symmetric: ax = 6b and ay = -6c for the first block, ax = -6b and
    ay = 6c for the last."""
    if side == "first":
        return p.a * p.x == 6 * p.b and p.a * p.y == -6 * p.c
    if side == "last":
        return p.a * p.x == -6 * p.b and p.a * p.y == 6 * p.c
    raise ValueError("side must be 'first' or 'last'")


@dataclass(frozen=True)
class PartialSymmetryConsequences:
    applies: bool  # level k nonzero and partially symmetric
    passed: bool
    violated_clause: str | None


def verify_partial_symmetry_consequences(l: LogSignature, k: int) -> PartialSymmetryConsequences:
    """Check the structural consequences of a nonzero partially symmetric
    exponential level at k >= 4: the degree-1 level is nonzero, log levels
    2..k/2 vanish, and every exponential level 2..k is fully symmetric.

    Vacuous (applies=False, passed=True) when level k is zero or carries no
    partial flag. Any failure would indicate an implementation bug.
    """
    if k < 4:
        raise ValueError("the consequences are empty for k < 4")
    if k > l.max_level:
        raise ValueError("k exceeds the truncation level")
    sig = exp_log_signature(l)
    level_k = sig.level(k)
    if level_k.is_zero:
        return PartialSymmetryConsequences(False, True, None)
    report = symmetry_report(level_k)
    if not report.partial:
        return PartialSymmetryConsequences(False, True, None)
    if l.level(1).is_zero:
        return PartialSymmetryConsequences(True, False, "degree-1 log level is zero")
    for i in range(2, k // 2 + 1):
        if not l.level(i).is_zero:
            return PartialSymmetryConsequences(True, False, f"log level {i} is nonzero")
    for i in range(2, k + 1):
        if not is_symmetric(sig.level(i)):
            return PartialSymmetryConsequences(True, False, f"exp level {i} is not symmetric")
    return PartialSymmetryConsequences(True, True, None)


def skew_impossibility_check(l: LogSignature, k: int) -> bool:
    """True when the level-k exponential is either not skew or zero. Skew
    signature levels cannot exist for k >= 3, so this is a theorem harness
    expected to always return True."""
    if k < 3:
        raise ValueError("k must be >= 3; order 2 admits skew signatures")
    if k > l.max_level:
        raise ValueError("k exceeds the truncation level")
    level = exp_log_signature(l).level(k)
    return level.is_zero or not is_skew(level)
