"""Explicit low-rank decompositions of signature-type tensors, rank bound
formulas, flattening and Koszul lower bounds, and rank certificates.

The central object is the weighted sum

    S_{k,a}(v_1, ..., v_m) = sum over a_1+...+a_m = k of
        v_1^(x)a_1 (x) ... (x) v_m^(x)a_m / ((a_1+a)! a_2! ... a_m!)

which at a = 0 is exactly the level-k signature of the piecewise linear path
with increments v_1, ..., v_m. In general it is level k of
E_a(v_1) (x) exp(v_2) (x) ... (x) exp(v_m) with E_a(v) = sum_j v^(x)j / (j+a)!,
so s_k_alpha is the signature kernel of `graded` at weight a: level k held
over (k+a)! D^k, each later segment folded in by Horner's rule, with no sum
over compositions. The decomposition constructors reproduce the
groupings that pair consecutive monomials into elementary tensors; the extra
weight a on the first factor is what makes the constructions compose under
the recursion

    S_{k,a} = v_1 (x) S_{k-1,a+1}(v_1..v_m) + S_{k,0}(v_2..v_m) / a!.

Every lower bound is one scan (_scan) of integer matrices, never Fraction
ones, each ranked mod the prime P = 1048573 by linalg._rank_mod_p: the
flattenings of the concise core (_core), a slice of t.nums, then at order 3
the Koszul flattenings of the ambient t.nums, as their divisor d - 1 is ambient.
A rank mod P is at most the rank r over Q, and equal unless P divides every
r x r minor, so `lower` is a bound proved by a matrix whose rank mod P reaches it.
A certificate reads the core within its witness's span (_witness_core), or for
m independent v_i the axis path's S_{k,a}(e_1..e_m): each keeps t's flattening ranks.
Its scan ranks a candidate only if its shape cap, then the witness's
distinct-factor cap (_flattenings), then its count of nonzero rows can beat
the best bound so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations
from math import ceil, comb, factorial, lcm
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from . import graded
from .conciseness import level_echelon, mode_echelons
from .linalg import Vector, _echelon, _rank_mod_p, _scaled_vectors, as_fraction, as_vector
from .tensors import Tensor, _koszul_rows, mode_offsets

TermList = list[tuple[Fraction, Sequence[graded.Key]]]


@dataclass(frozen=True, init=False)
class Decomposition:
    """A list of weighted elementary tensors; its length certifies a rank upper bound for the tensor it realizes.
    `keyed` holds each term as its coefficient and one graded.Key per factor; `terms` is a Fraction view."""

    dim: int
    order: int
    keyed: tuple[tuple[Fraction, tuple[graded.Key, ...]], ...]

    def __init__(self, dim: int, order: int, terms: Iterable[tuple]):
        self.__dict__.update(dim=dim, order=order, keyed=tuple((c, tuple(_keys(factors))) for c, factors in terms))
        self._checked()

    @staticmethod
    def _unchecked(dim: int, order: int, keyed: Iterable[tuple[Fraction, Sequence[graded.Key]]]) -> "Decomposition":
        dec = Decomposition.__new__(Decomposition)
        dec.__dict__.update(dim=dim, order=order, keyed=tuple(keyed))
        return dec

    @staticmethod
    def of(dim: int, order: int, terms: Iterable[tuple]) -> "Decomposition":
        """Build from (coeff, factors) pairs, dropping identically-zero terms."""
        return _cleaned(dim, order, [(as_fraction(c), _keys(map(as_vector, factors))) for c, factors in terms])._checked()

    def _checked(self) -> "Decomposition":
        """self, refused unless dim >= 1, order >= 0 and every term has order factors of length dim."""
        if self.dim < 1 or self.order < 0:
            raise ValueError(f"a decomposition needs dim >= 1 and order >= 0, got dim={self.dim}, order={self.order}")
        for _, keys in self.keyed:
            if len(keys) != self.order:
                raise ValueError("every term needs one factor per mode")
            if any(len(nums) != self.dim for nums, _ in keys):
                raise ValueError("factor vector has wrong dimension")
        return self

    @cached_property
    def terms(self) -> tuple[tuple[Fraction, tuple[Vector, ...]], ...]:
        return tuple((c, tuple(tuple(Fraction(n, den) for n in nums) for nums, den in keys)) for c, keys in self.keyed)

    @property
    def length(self) -> int:
        return sum(1 for c, _ in self.keyed if c != 0)

    def realize(self) -> Tensor:
        return Tensor._of_level(self.order, self.dim, graded.accumulate(self.keyed, self.dim, self.order))


def _cleaned(dim: int, order: int, terms: TermList) -> Decomposition:
    """The decomposition of keyed terms without those that are identically zero."""
    return Decomposition._unchecked(dim, order, ((c, tuple(keys)) for c, keys in terms if c and all(any(nums) for nums, _ in keys)))


@dataclass(frozen=True)
class RankCertificate:
    lower: int
    upper: int
    witness: Decomposition | None
    status: str  # "exact" when lower == upper, else "bounded"

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.status == "exact" and (self.witness is None or self.witness.length != self.upper):
            raise ValueError("exact status requires a witness of matching length")


def _vectors(vs: Sequence[Sequence], alpha: int = 0) -> list[Vector]:
    """vs as vectors of one dimension, refused first if alpha, the weight of the sum they enter, is negative."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    vecs = [as_vector(v) for v in vs]
    if not vecs:
        raise ValueError("need at least one vector")
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise ValueError("vectors must share a dimension")
    return vecs


def _keys(vs: Iterable[Sequence]) -> list[graded.Key]:
    return [graded.as_key(*graded.from_fractions(v)) for v in vs]


def _mix(d: int, *pairs: tuple[graded.Key, int]) -> graded.Key:
    """Sum of v / c over the (v, c) pairs; the zero vector of length d if none."""
    den = lcm(*(vd * c for (_, vd), c in pairs))
    scaled = (vn if (s := den // (vd * c)) == 1 else [x * s for x in vn] for (vn, vd), c in pairs)
    return graded.as_key(list(map(sum, zip(*scaled))) or [0] * d, den)


def s_k_alpha(vs: Sequence[Sequence], k: int, alpha: int) -> Tensor:
    """The defining sum as level k of the kernel's signature at weight
    alpha, which evaluates every composition of k by Horner's rule."""
    if k < 2:
        raise ValueError("k must be >= 2")
    vecs = _vectors(vs, alpha)
    d = len(vecs[0])
    return Tensor._of_level(k, d, graded.signature(vecs, d, k, alpha)[k])


def decompose_two_segments(u: Sequence, v: Sequence, k: int, alpha: int = 0) -> Decomposition:
    """Pair consecutive binomial terms of S_{k,alpha}(u, v) so that the
    length is ceil((k+1)/2); at alpha = 0 this realizes the level-k
    signature of the two-segment path exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _two_segments(*_keys(_vectors([u, v], alpha)), k, alpha)


def _two_segments(uu: graded.Key, vv: graded.Key, k: int, alpha: int) -> Decomposition:
    d = len(uu[0])
    terms: TermList = [] if k % 2 else [(Fraction(1, factorial(alpha) * factorial(k)), [vv] * k)]
    for j in range(1 - k % 2, k, 2):
        mixed = _mix(d, (uu, j + 1 + alpha), (vv, k - j))
        terms.append((Fraction(1, factorial(j + alpha) * factorial(k - j - 1)), [uu] * j + [mixed] + [vv] * (k - j - 1)))
    return _cleaned(d, k, terms)


def decompose_three_segments(u: Sequence, v: Sequence, w: Sequence, k: int, alpha: int = 0) -> Decomposition:
    """Group the trinomial terms of S_{k,alpha}(u, v, w) into at most
    ceil((k+1)^2/4) elementary tensors: u^a (x) (u, v, w) (x) w^c with
    a + c = k-1 and a of the parity of k-1, u^j v^b (x) (v, w) (x) w^e with
    j >= 1 and e even, v^b (x) (v, w) (x) w^c with b of the parity of k-1,
    and for even k the term w^k on its own."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _three_segments(*_keys(_vectors([u, v, w], alpha)), k, alpha)


def _three_segments(uu: graded.Key, vv: graded.Key, ww: graded.Key, k: int, alpha: int) -> Decomposition:
    d = len(uu[0])
    terms: TermList = []
    for a in range(1 - k % 2, k, 2):
        c = k - 1 - a
        mixed = _mix(d, (uu, a + 1 + alpha), (vv, 1), (ww, c + 1))
        terms.append((Fraction(1, factorial(a + alpha) * factorial(c)), [uu] * a + [mixed] + [ww] * c))
    for e in range(0, k - 2, 2):
        for j in range(1, k - e - 1):
            b = k - 1 - e - j
            mixed = _mix(d, (vv, b + 1), (ww, e + 1))
            terms.append((Fraction(1, factorial(j + alpha) * factorial(b) * factorial(e)), [uu] * j + [vv] * b + [mixed] + [ww] * e))
    for b in range(1 + k % 2, k, 2):
        c = k - 1 - b
        mixed = _mix(d, (vv, b + 1), (ww, c + 1))
        terms.append((Fraction(1, factorial(alpha) * factorial(b) * factorial(c)), [vv] * b + [mixed] + [ww] * c))
    if k % 2 == 0:
        terms.append((Fraction(1, factorial(alpha) * factorial(k)), [ww] * k))
    return _cleaned(d, k, terms)


def decompose_second_level(vs: Sequence[Sequence], alpha: int = 0) -> Decomposition:
    """Row-by-row grouping of S_{2,alpha}: term i covers every monomial v_i (x) v_j
    with j >= i, at most m terms; the later v_j are summed as a running remainder."""
    return _second_level(_keys(_vectors(vs, alpha)), alpha)


def _second_level(vecs: list[graded.Key], alpha: int) -> Decomposition:
    d = len(vecs[0][0])
    rest = _mix(d, *((v, 1) for v in vecs))
    terms: TermList = []
    for i, v in enumerate(vecs):
        first = i == 0  # only v_1 carries the weight alpha
        rest = _mix(d, (rest, 1), (v, -1))
        terms.append((Fraction(1, factorial(alpha + first)), [v, _mix(d, (v, 2 + alpha * first), (rest, 1))]))
    return _cleaned(d, 2, terms)


def decompose_s3_alpha(vs: Sequence[Sequence], alpha: int = 0) -> Decomposition:
    """The 2m-2 term grouping of S_{3,alpha}(v_1, ..., v_m), split at
    s = ceil(m/2): squares of early vectors lead, squares of late vectors
    trail, and mixed middles cover the rest, read from two running sums built in one
    pass (0-based i): head[i] = v_1/(alpha+1) + v_2 + ... + v_(i+1), tail[i] = v_(i+2) + ... + v_m."""
    return _s3_alpha(_keys(_vectors(vs, alpha)), alpha)


def _s3_alpha(v: list[graded.Key], alpha: int) -> Decomposition:
    m, d = len(v), len(v[0][0])  # 0-based: v[0] is the alpha-weighted first vector
    if m < 2:
        raise ValueError("need at least two vectors")
    s = ceil(m / 2)
    beta = Fraction(1, factorial(alpha))
    head, tail = [_mix(d, (v[0], alpha + 1))], [_mix(d)] * m
    for i in range(1, m):
        head.append(_mix(d, (head[-1], 1), (v[i], 1)))
        tail[m - 1 - i] = _mix(d, (tail[m - i], 1), (v[m - i], 1))
    # leading squares: v1^(x)2 covers every monomial with v1 twice
    terms: TermList = [(Fraction(1, factorial(2 + alpha)), [v[0], v[0], _mix(d, (v[0], 3 + alpha), (tail[0], 1))])]
    # squares of v_i for 2 <= i <= s
    for i in range(1, s):
        terms.append((beta / 2, [v[i], v[i], _mix(d, (v[i], 3), (tail[i], 1))]))
    # middles at position i for 2 <= i <= s
    for i in range(1, s):
        terms.append((beta, [head[i - 1], v[i], _mix(d, (v[i], 2), (tail[i], 1))]))
    # trailing squares: v_i^(x)2 for s+1 <= i <= m
    for i in range(s, m):
        terms.append((beta / 2, [_mix(d, (head[i - 1], 1), (v[i], 3)), v[i], v[i]]))
    # middles at position i for s+1 <= i <= m-1
    for i in range(s, m - 1):
        terms.append((beta, [_mix(d, (head[i - 1], 1), (v[i], 2)), v[i], tail[i]]))
    return _cleaned(d, 3, terms)


def decompose_s_k_alpha(vs: Sequence[Sequence], k: int, alpha: int = 0) -> Decomposition:
    """Construction whose length matches rank_bound_formula: a loop over the
    first factor v_i strips it into an order-(k-1) problem on v_i..v_m (weight
    alpha+1 for v_1, 1 after), the last three vectors close the sum, and the
    recursion, on the order only, ends in the closed-form groupings above."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _decompose(_keys(_vectors(vs, alpha)), k, alpha)


def _decompose(vecs: list[graded.Key], k: int, alpha: int) -> Decomposition:
    m, d = len(vecs), len(vecs[0][0])
    if m == 1:
        return _cleaned(d, k, [(Fraction(1, factorial(k + alpha)), [vecs[0]] * k)])
    if k == 2:
        return _second_level(vecs, alpha)
    if k == 3:
        return _s3_alpha(vecs, alpha)
    if m == 2:
        return _two_segments(*vecs, k, alpha)
    # the tail unrolled: branch i is v_i (x) S_{k-1,a+1}(v_i..v_m), a = alpha for v_1 and 0 after, and every
    # term after the first branch is over alpha!; S_{k,a}(v_{m-2}, v_{m-1}, v_m) closes the sum. The
    # sub-witnesses are clean, and neither a nonzero v_i in front nor 1/alpha! zeroes a term
    terms, a, scale = [], alpha, 1
    for i, v in enumerate(vecs[:-3]):
        if any(v[0]):
            terms += [(c / scale if scale > 1 else c, (v, *fs)) for c, fs in _decompose(vecs[i:], k - 1, a + 1).keyed]
        a, scale = 0, factorial(alpha)
    terms += [(c / scale if scale > 1 else c, fs) for c, fs in _three_segments(*vecs[-3:], k, a).keyed]
    return Decomposition._unchecked(d, k, terms)


def rank_bound_formula(k: int, m: int) -> int:
    """Certified upper bound for the rank of S_{k,alpha} on m vectors.

    Closed forms for m <= 3 and k <= 2; otherwise the binomial sum whose
    value equals the term count of decompose_s_k_alpha. For fixed k the
    bound grows like 2 m^(k-2) / (k-2)!.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be positive")
    if m == 1 or k == 1:
        return 1
    if k == 2:
        return m
    if m == 2:
        return ceil((k + 1) / 2)
    if m == 3:
        return ceil((k + 1) ** 2 / 4)
    if k == 3:
        return 2 * m - 2
    total = sum(comb(m + j - 4, j) * ceil((k - j + 1) ** 2 / 4) for j in range(0, k - 3))
    total += 2 * comb(m + k - 6, k - 2) + 4 * comb(m + k - 7, k - 3)
    return total


def _scan(candidates: Iterable[tuple[int, int, Callable[[], list[list[int]]]]], stop: int) -> int:
    """The best ceil(rank / divisor) over (cap, divisor, rows) candidates, each
    rank taken mod P (linalg._rank_mod_p), a lower bound for the rank over Q:
    rows() builds an integer matrix of rank at most cap, and is not called if
    ceil(cap / divisor) cannot beat the best; its zero rows are dropped, and it
    is not ranked if its nonzero rows, a bound on its rank, cannot beat the
    best either. The scan ends once the best reaches `stop`."""
    best = 0
    for cap, divisor, rows in candidates:
        if -(-cap // divisor) <= best:
            continue
        nonzero = [row for row in rows() if any(row)]
        if -(-len(nonzero) // divisor) <= best:
            continue
        best = max(best, -(-_rank_mod_p(nonzero, len(nonzero[0])) // divisor))
        if best >= stop:
            break
    return best


def _flattenings(nums: Sequence[int], k: int, d: int, witness: Decomposition | None = None):
    """Flattening candidates (divisor 1) over index bipartitions (S, S^c) up
    to complement: all of them through order 7; beyond that the odd/even split
    and the contiguous prefixes, which keeps the scan linear in the order.
    Each is read from nums, the order-k tensor's integer numerators over its
    one denominator (rank does not change under scaling), with the shorter
    side as rows. Its cap is the shape cap min(d^|S|, d^|S^c|), and, given a
    witness that realizes a tensor with these flattening ranks, also the
    distinct-factor caps u_S and u_{S^c}: the witness's nonzero terms that
    share their factors at the positions of S sum to one rank-one matrix, so
    the rank is at most the count u_S of their distinct factor tuples there.
    Candidates come by decreasing cap, ties by decreasing shape cap, then S,
    so _scan skips each one whose cap, or whose count of nonzero rows, cannot
    beat the best bound so far."""
    if k <= 7:
        parts = [(1, *c) for r in range(k - 1) for c in combinations(range(2, k + 1), r)]
    else:
        parts = list({tuple(range(1, k + 1, 2)), *(tuple(range(1, j + 1)) for j in range(1, k))})
    parts.sort(key=lambda s: (-min(len(s), k - len(s)), s))
    sides = [(part, tuple(p for p in range(1, k + 1) if p not in part)) for part in parts]
    caps = [d ** min(len(part), len(rest)) for part, rest in sides]
    if witness is not None:
        ids: dict[graded.Key, int] = {}
        # each term's factor numbers after a pad at 0, so that position p is at index p
        terms = [(0, *[ids.setdefault(key, len(ids)) for key in keys]) for c, keys in witness.keyed if c]
        # a side's count is at least each of its positions' counts: a side
        # with a position that reaches the cap is not counted
        counts = [len(set(column)) for column in zip(*terms)] or [0] * (k + 1)
        for i, pair in enumerate(sides):
            for side in pair:
                if max(map(counts.__getitem__, side)) < caps[i]:
                    caps[i] = min(caps[i], len(set(map(itemgetter(*side), terms))))
    for cap, (part, rest) in sorted(zip(caps, sides), key=lambda candidate: -candidate[0]):  # stable: ties keep the order above
        small, large = (part, rest) if len(part) <= len(rest) else (rest, part)
        yield cap, 1, lambda small=small, large=large: [
            [nums[r + c] for c in cols] for cols in [mode_offsets(large, k, d)] for r in mode_offsets(small, k, d)]


def _koszul_flattenings(t: Tensor):
    """At order 3 with d >= 2, the Koszul flattening at each pivot mode,
    d^2 x d C(d, 2) on the ambient numerators, with divisor d - 1, the rank
    it gives an elementary tensor; otherwise none."""
    d = t.dim
    if t.order == 3 and d >= 2:
        for pivot in (1, 2, 3):
            yield min(d * d, d * comb(d, 2)), d - 1, partial(_koszul_rows, t.nums, d, pivot)


def _slice(t: Tensor, coords: Sequence[int]) -> list[int]:
    """t's numerators at the indices in coords^k, in storage order."""
    offsets = [0]
    for _ in range(t.order):
        offsets = [o * t.dim + j for o in offsets for j in coords]
    return [t.nums[o] for o in offsets]


def _core(t: Tensor) -> tuple[Sequence[int], int]:
    """The numerators and dim to scan flattenings on: t's own if the sum U of
    its mode subspaces is full, else the subtensor at J^k and |J|, J the pivot
    columns of U's echelon rows (of a zero tensor, none). t lies in U^(x)k and
    the projection onto J is injective on U, so no flattening rank changes."""
    pivots = [pc for pc, _ in level_echelon(t)]
    if len(pivots) == t.dim:
        return t.nums, t.dim
    return _slice(t, pivots), len(pivots)


def _witness_core(t: Tensor, witness: Decomposition) -> tuple[Sequence[int], int]:
    """_core of t's slice at the pivots J_W of the span W of the witness's
    factors (of t itself if W is Q^d, or {0}: t is then zero). A witness that
    realizes t puts t in W^(x)k, so the slice keeps every flattening rank, and its U is cheaper to find."""
    span = [pc for pc, _ in _echelon({nums for _, keys in witness.keyed for nums, _ in keys}, t.dim)]
    return _core(t if len(span) in (0, t.dim) else Tensor._of_level(t.order, len(span), (_slice(t, span), 1)))


def flattening_lower_bound(t: Tensor) -> int:
    """Max matrix rank mod P = 1048573 over index bipartitions; a lower bound
    for the rank, proved by a flattening whose rank mod P reaches it. One scan
    (_scan) of the flattenings of the concise core (_core)."""
    if t.order < 2:
        raise ValueError("flattening needs order >= 2")
    nums, d = _core(t)
    # no flattening rank exceeds the entry count, so stopping there never
    # changes the maximum
    return _scan(_flattenings(nums, t.order, d), len(nums))


def koszul_lower_bound(t: Tensor) -> int:
    """Koszul bound for order-3 tensors: one scan (_scan) of ceil(rank(F) /
    (d - 1)) over the Koszul flattenings F of the ambient tensor, each rank
    taken mod P = 1048573, at most the rank over Q: the bound is proved by an
    F whose rank mod P gives it. 0 at d = 1."""
    if t.order != 3:
        raise ValueError("the Koszul bound needs an order-3 tensor")
    return _scan(_koszul_flattenings(t), len(t.nums))


def certify_rank(t: Tensor, upper_witness: Decomposition) -> RankCertificate:
    """Combine one scan's (_scan) lower bound with the witness length; status
    "exact" means the two meet. The scan reads the flattenings of _witness_core,
    by decreasing cap, then at order 3 the Koszul flattenings of t (divisor
    d - 1). It ranks a candidate only if its shape cap, then the witness's
    distinct-factor cap, then its count of nonzero rows can beat the best
    bound so far: skipping the others leaves the maximum as it is.

    Every bound is at most the rank, hence at most the witness length, so the
    scan stops once the lower bound reaches that length: the result is the
    same as the full scan's."""
    return _certify(t, upper_witness, lambda: _witness_core(t, upper_witness))


def _certify_s_k_alpha(vs: Sequence[Sequence], k: int, alpha: int, witness: Decomposition) -> RankCertificate:
    """certify_rank of t = s_k_alpha(vs, k, alpha), the flattenings read from
    C = s_k_alpha(e_1..e_m, k, alpha) when the m vectors are independent: t is
    V^(x)k C (the sum is multilinear), C is L^(x)k t for a left inverse L of V,
    so all flattening ranks agree. The witness check and the Koszul flattenings
    (ambient divisor) read t."""
    vecs = _vectors(vs)
    t, m = s_k_alpha(vecs, k, alpha), len(vecs)
    if len(_echelon(_scaled_vectors(vecs, t.dim), t.dim)) < m:
        return certify_rank(t, witness)
    return _certify(t, witness, lambda: (s_k_alpha([[int(i == j) for j in range(m)] for i in range(m)], k, alpha).nums, m))


def _certify(t: Tensor, upper_witness: Decomposition, flattened: Callable[[], tuple[Sequence[int], int]]) -> RankCertificate:
    """certify_rank, its flattenings read from flattened(): the numerators and
    dim of a tensor with t's flattening ranks, asked for once the witness passed."""
    # the shape test first: a witness of a huge order could not be realized
    if (upper_witness.dim, upper_witness.order) != (t.dim, t.order) or upper_witness.realize() != t:
        raise ValueError("invalid witness: decomposition does not realize the tensor")
    upper = upper_witness.length
    if t.order >= 2:
        nums, d = flattened()
        lower = _scan(chain(_flattenings(nums, t.order, d, upper_witness), _koszul_flattenings(t)), upper)
    else:
        lower = 0 if t.is_zero else 1
    status = "exact" if lower == upper else "bounded"
    return RankCertificate(lower, upper, upper_witness, status)


def hyperdet_222(t: Tensor) -> Fraction:
    """Cayley's 2x2x2 hyperdeterminant."""
    if t.order != 3 or t.dim != 2:
        raise ValueError("hyperdeterminant needs a 2x2x2 tensor")

    def e(i, j, k):
        return t[(i + 1, j + 1, k + 1)]

    d1 = e(0, 0, 0) * e(1, 1, 1)
    d2 = e(0, 0, 1) * e(1, 1, 0)
    d3 = e(0, 1, 0) * e(1, 0, 1)
    d4 = e(0, 1, 1) * e(1, 0, 0)
    square = d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4
    cross = d1 * d2 + d1 * d3 + d1 * d4 + d2 * d3 + d2 * d4 + d3 * d4
    quad = e(0, 0, 0) * e(0, 1, 1) * e(1, 0, 1) * e(1, 1, 0) + e(0, 0, 1) * e(0, 1, 0) * e(1, 0, 0) * e(1, 1, 1)
    return square - 2 * cross + 4 * quad


def classify_222_complex_rank(t: Tensor) -> int:
    """Complex rank of a 2x2x2 tensor: 0, 1, 2, or 3.

    Rank 3 happens exactly when the hyperdeterminant vanishes while all
    three flattenings have rank 2. Real rank is not computed here. A mode
    flattening's rank is the dimension of its mode subspace.
    """
    if t.order != 3 or t.dim != 2:
        raise ValueError("classification needs a 2x2x2 tensor")
    if t.is_zero:
        return 0
    ranks = [len(rows) for rows in mode_echelons(t)]
    if all(r <= 1 for r in ranks):
        return 1
    if all(r == 2 for r in ranks) and hyperdet_222(t) == 0:
        return 3
    return 2
