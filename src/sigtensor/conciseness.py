"""Mode subspaces, symmetric conciseness, and hyperplane recovery.

A tensor lies in W^(x)k exactly when every mode subspace (the span of its
mode fibers) is contained in W, so the minimal such W is the span of all
mode subspaces. For signatures this detects whether the underlying path is
confined to an affine subspace: the recovered direction space is certified
up to the truncation level only.

mode_echelons is the one reader of a tensor's spans: lazily, each mode's
integer _echelon rows, one per dimension of its mode subspace. echelon_sum
sums spans by the same elimination and reads no echelon once the sum is Q^d.
The rest count or sum those rows (over modes, then levels), and only the
spans they return become Fraction RREF Subspaces.

A mode subspace is settled by the first d fibers when they span Q^d, else
by the pivot columns of the d x d^(k-1) unfolding. When n < d of its rows
are nonzero (a path in a coordinate hyperplane), the n columns from the
first nonzero one are eliminated first, and reaching n pivots there skips
the full unfolding. After a mode that needed the full unfolding, the next
mode takes the same rows when swapping their two letters leaves the tensor
unchanged, as at every mode of a symmetric tensor (a collinear path's
levels).
"""

from __future__ import annotations

from itertools import chain, compress, count, islice
from typing import Iterable, Iterator

from . import graded
from .linalg import Echelon, Subspace, _echelon
from .signatures import TruncatedSignature
from .tensors import Tensor


def mode_subspaces(t: Tensor) -> list[Subspace]:
    """For each mode, the span of the mode fibers in Q^d (the column space
    of the d x d^(k-1) unfolding). The tensor is concise iff all are full."""
    return [Subspace._of_echelon(rows, t.dim) for rows in mode_echelons(t)]


def mode_echelons(t: Tensor) -> Iterator[Echelon]:
    """For each mode, in mode order and read lazily, the _echelon rows of its
    mode fibers: integer rows, one per dimension of the mode subspace, that
    span it. Order 0 is refused at the call."""
    if t.order < 1:
        raise ValueError("mode subspaces need order >= 1")
    return _mode_echelons(t.nums, t.dim, t.order)


def _mode_echelons(nums: tuple[int, ...], d: int, k: int) -> Iterator[Echelon]:
    """mode_echelons on the integer numerators.

    When swapping letters i and i + 1 leaves the tensor unchanged, modes i
    and i + 1 have the same fibers, so mode i's rows are mode i + 1's. The
    swap is built only after a mode whose rows took the full unfolding's
    elimination (and after a mode that reused such rows): the first d
    fibers and the n-column window settle a mode for less than the swap."""
    unfolded: list[bool] = []  # set by _spanning_fibers when it eliminates the full unfolding
    for mode in range(1, k + 1):
        stride = d ** (k - mode)
        if unfolded:
            # the entries whose other letters are all 1 form a d x d matrix in
            # the two swapped letters, which the swap transposes: when it is not
            # symmetric, as at a path in a non-coordinate hyperplane, the whole
            # level is not swapped
            corner = nums[: d * d * stride : stride]
            if all(corner[a * d : (a + 1) * d] == corner[a::d] for a in range(d)) and graded.swap_positions(nums, d, k, mode - 2) == nums:
                yield rows
                continue
            unfolded.clear()
        rows = _echelon(_spanning_fibers(nums, d, stride, unfolded), d)
        yield rows


def echelon_sum(echelons: Iterable[Echelon], d: int) -> Echelon:
    """The _echelon rows of the sum of the spans of the given echelons; no
    echelon is read once the sum is Q^d."""
    return _echelon((row for rows in echelons for _, row in rows), d)


def _spanning_fibers(nums: tuple[int, ...], d: int, stride: int, unfolded: list[bool]):
    """Mode fibers that span the mode subspace, read lazily by the echelon.

    A fiber is a strided slice of the integer numerators: their one
    denominator scales every fiber alike, which keeps each span. The first d
    fibers come first, so a full mode stops there. Only if the echelon reads
    on, and there are more fibers, are the d unfolding rows built, each
    joined from the fewer slices (d^(mode-1) contiguous blocks or d^(k-mode)
    strided runs, one column order for all rows); the fibers at the pivot
    columns of their _echelon, the first linearly independent ones, follow.

    With n < d nonzero rows the rank is at most n, and the pivots among the
    n columns from the first nonzero one are the unfolding's pivots there.
    So that window is eliminated first; if it holds n pivots they are all
    of them, and the full elimination runs only when it does not; then
    True is appended to unfolded."""
    block = stride * d
    yield from islice((nums[base + off : base + block : stride] for base in range(0, len(nums), block) for off in range(stride)), d)
    if len(nums) <= d * d:  # at order <= 2 those were all the fibers
        return
    if len(nums) // block <= stride:
        rows = [list(chain.from_iterable(nums[b : b + stride] for b in range(i * stride, len(nums), block))) for i in range(d)]
    else:
        rows = [list(chain.from_iterable(nums[i * stride + off :: block] for off in range(stride))) for i in range(d)]
    live = [r for r in rows if any(r)]
    pivots = []
    if len(live) < d:
        start = min((next(compress(count(), r)) for r in live), default=0)
        pivots = [start + pc for pc, _ in _echelon([r[start : start + len(live)] for r in live], len(live))]
    if len(pivots) < len(live):
        pivots = [pc for pc, _ in _echelon(live, len(rows[0]))]
        unfolded.append(True)
    for c in pivots:
        yield [r[c] for r in rows]


def is_concise(t: Tensor) -> bool:
    """Whether every mode subspace is Q^d; no mode after a deficient one is read."""
    return all(len(rows) == t.dim for rows in mode_echelons(t))


def symmetric_conciseness(t: Tensor) -> Subspace:
    """The minimal W with t in W^(x)k: the span of the union of the mode
    subspaces. t is symmetrically concise iff this is all of Q^d."""
    return Subspace._of_echelon(echelon_sum(mode_echelons(t), t.dim), t.dim)


def tensor_in_power(t: Tensor, w: Subspace) -> bool:
    """Whether t lies in w^(x)k."""
    if t.dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if t.order == 0:
        return True
    return w.contains_subspace(symmetric_conciseness(t))


def hyperplane_recovery(s: TruncatedSignature) -> Subspace | None:
    """The span W of the symmetric-conciseness spaces of levels 1..K.

    Returns W when it is proper, None when full. For signatures of paths a
    proper W certifies, up to the truncation level, that the path stays in
    an affine subspace parallel to W; W may have any dimension, not just
    d - 1, and its dim field says which.
    """
    if s.max_level < 2:
        raise ValueError("recovery needs truncation level >= 2")
    # one sum over every mode of every level: no level after a full sum is read
    total = echelon_sum(chain.from_iterable(mode_echelons(s.level(k)) for k in range(1, s.max_level + 1)), s.dim)
    return None if len(total) == s.dim else Subspace._of_echelon(total, s.dim)


def divisor_propagation_check(s: TruncatedSignature, k: int, w: Subspace) -> bool:
    """Given that level k lies in w^(x)k, check that level t lies in w^(x)t
    for every divisor t of k. Holds for every tensor sequence satisfying the
    shuffle identity; the hypothesis is enforced, the conclusion reported."""
    if not 1 <= k <= s.max_level:
        raise ValueError("k outside 1..K")
    if not tensor_in_power(s.level(k), w):
        raise ValueError("hypothesis not met: level k does not lie in the given power")
    divisors = [t for t in range(1, k + 1) if k % t == 0]
    return all(tensor_in_power(s.level(t), w) for t in divisors)
