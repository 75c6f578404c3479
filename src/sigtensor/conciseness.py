"""Mode subspaces, symmetric conciseness, and hyperplane recovery.

A tensor lies in W^(x)k exactly when every mode subspace (the span of its
mode fibers) is contained in W, so the minimal such W is the span of all
mode subspaces. For signatures this detects whether the underlying path is
confined to an affine subspace: the recovered direction space is certified
up to the truncation level only.

live_echelons is the one reader of a tensor's spans: its live letters J
(those of its nonzero entries) and, lazily, each mode's integer _echelon
rows in Q^d, one per dimension of its mode subspace. mode_echelons takes
each mode as it comes, and level_echelon sums the modes by the same
elimination, so the sum stops at |J| rows. echelon_sum reads no echelon
once its sum is full. The rest count or sum those rows (over modes, then
levels), and only the spans they return become Fraction RREF Subspaces.

A mode subspace is settled in three tiers. The first d fibers settle it
when they span Q^d; at mode 1 they also show that no letter is dead.
Otherwise the dead letters are found once per level (a path in a
coordinate subspace), and every mode's elimination is capped at |J| rows:
its first |J| fibers, those whose other letters are all the first live
letter but the last, which runs over J, settle it when they span the live
letters. Else the pivot columns of the unfolding settle it. After a mode
that needed the full unfolding, the next mode takes the same rows when
swapping their two letters leaves the tensor unchanged, as at every mode of
a symmetric tensor (a collinear path's levels).

The same kernel reads a level held as the plain strings of a JSON file
(PlainLevel, from signature_levels, which `concise` uses): every entry has
been checked as bytes, and only the fibers that are read get parsed, every
mode's first fibers in one batch, the whole level only for a mode that
needs its full unfolding.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import graded, serialize
from .linalg import Echelon, Subspace, _echelon
from .serialize import _is_plain, _parse_level
from .signatures import TruncatedSignature, _Graded
from .tensors import Tensor


def mode_subspaces(t: Tensor) -> list[Subspace]:
    """For each mode, the span of the mode fibers in Q^d (the column space
    of the d x d^(k-1) unfolding). The tensor is concise iff all are full."""
    return [Subspace._of_echelon(rows, t.dim) for rows in mode_echelons(t)]


def mode_echelons(t: Tensor) -> Iterator[Echelon]:
    """For each mode, in mode order and read lazily, the _echelon rows of its
    mode fibers: integer rows, one per dimension of the mode subspace, that
    span it. Order 0 is refused at the call."""
    return live_echelons(t)[1]


def level_echelon(t: Tensor) -> Echelon:
    """The _echelon rows of the sum of t's mode subspaces: no mode is read
    once the sum spans the live letters."""
    live, modes = live_echelons(t)
    return echelon_sum(modes, len(live))


def echelon_sum(echelons: Iterable[Echelon], d: int) -> Echelon:
    """The _echelon rows of the sum of the spans of the given echelons; no
    echelon is read once the sum has d rows."""
    return _echelon((row for rows in echelons for _, row in rows), d)


class PlainLevel(NamedTuple):
    """A tensor level held as the plain "p"/"p/q" strings of its JSON entries
    (serialize._is_plain), in Tensor storage order; none is parsed."""

    order: int
    dim: int
    entries: Sequence[str]


def signature_levels(obj: Any, where: str = "signature") -> _Graded:
    """The levels 0..K of a signature's JSON object as `concise` reads them.

    A level of order 3 or more whose entries are plain strings that do not
    repeat (serialize.plain_entries' sample rule) is a PlainLevel: every
    entry is checked by _is_plain and none is parsed. Any other level is
    parsed whole by tensor_from_json: a collinear path's, whose few
    distinct entries parse for less than its unfolding would, and one of
    order 2 or less, whose first d mode-1 fibers are already the whole
    level. Errors are signature_from_json's, in its order: level by level,
    then the shape of each level against its place."""
    return serialize._levels_from_json(obj, where, _Graded, _signature_level)


def _signature_level(obj: Any, where: str) -> Tensor | PlainLevel:
    order, dim, entries = serialize.tensor_fields(obj, where)
    try:
        if order >= 3 and not serialize._repetitive(entries) and _is_plain(entries):
            return PlainLevel(order, dim, entries)
    except TypeError:  # an unhashable entry, which tensor_from_json names
        pass
    return serialize.tensor_from_json(obj, where)


def live_echelons(t: Tensor | PlainLevel) -> tuple[Sequence[int], Iterator[Echelon]]:
    """t's live letters J, 0-based, and for each mode, read lazily, the
    _echelon rows of its mode subspace in Q^d, at most |J| of them.

    A letter is dead when its unfolding row is zero at every mode: no nonzero
    entry holds it, so every mode subspace lies in span(e_j : j in J). Mode
    1's first d fibers are eliminated first, and when they span Q^d no
    letter is dead: the later modes are settled as they come. Otherwise mode
    1's contiguous rows are read, each tested first at its first and last d
    entries (those whose middle letters are all the first letter, or all the
    last: a live row usually shows there when either letter is live), and a
    letter's rows at the other modes only when its mode-1 row is zero; when
    every letter is live, the rows of mode 1's first d fibers start its
    elimination again, in place of those fibers. Order 0 is refused at the
    call.

    A Tensor is read from its integer numerators. A PlainLevel is read from
    its strings: a run is zero when every entry is "0" (a zero spelled
    otherwise, "-0" or "0/7", makes its letter live, which costs time, not a
    span), each batch of fibers is parsed by one _parse_level call, whose
    one positive scale keeps every span, and only a mode that needs its full
    unfolding parses the level whole, once."""
    if t.order < 1:
        raise ValueError("mode subspaces need order >= 1")
    if isinstance(t, Tensor):
        return _live_echelons(t.nums, t.dim, t.order, any, list)
    return _live_echelons(t.entries, t.dim, t.order, _nonzero_plain, _parsed)


def _nonzero_plain(run: Sequence[str]) -> bool:
    return run.count("0") != len(run)


def _parsed(groups: Iterable[Iterable[Sequence[str]]]) -> list[Iterator[tuple[int, ...]]]:
    """Groups of runs of plain strings as groups of integer runs: one
    _parse_level call (one _parse_plain call, on the distinct strings when
    they repeat) puts every entry over one denominator, so each run is the
    same positive multiple of its values. Plain strings parse, so no entry
    is ever named (str stands for where)."""
    groups = [list(runs) for runs in groups]
    nums = iter(_parse_level(list(chain.from_iterable(chain.from_iterable(groups))), str)[0])
    return [iter([tuple(islice(nums, len(run))) for run in runs]) for runs in groups]


def _live_echelons(e: Sequence, d: int, k: int, nonzero: Callable[[Sequence], bool], batch: Callable) -> tuple[Sequence[int], Iterator[Echelon]]:
    """live_echelons of the entries e of an order-k level in Q^d: nonzero
    tests a run of entries, and batch turns a list of groups of runs of
    entries into a list of groups of integer runs, all over one positive
    scale (list, for integer numerators)."""
    first = _echelon(batch([_first_fibers(e, d, k, d ** (k - 1), range(d))])[0], d)
    if len(first) == d:
        return range(d), chain([first], _settled(e, d, k, 2, range(d), batch))
    # letter i's mode-1 row is the run e[i * row : (i + 1) * row]
    row = d ** (k - 1)
    short = min(d, row)
    live = [i for i in range(d) if nonzero(e[i * row : i * row + short]) or nonzero(e[(i + 1) * row - short : (i + 1) * row])
            or any(any(map(nonzero, _unfolding_runs(e, d, d ** (k - mode), i))) for mode in range(1, k + 1))]
    if not live:
        return live, repeat([], k)
    # with every letter live, mode 1's first fibers are the ones just eliminated: their rows stand in for them
    return live, _settled(e, d, k, 1, live, batch, [row for _, row in first] if len(live) == d else None)


def _settled(e: Sequence, d: int, k: int, start: int, live: Sequence[int], batch: Callable, known: list | None = None) -> Iterator[Echelon]:
    """The _echelon rows of modes start..k of the order-k level with entries
    e in Q^d, each elimination capped at its |J| live letters.

    When swapping letters i and i + 1 leaves the tensor unchanged, modes i
    and i + 1 have the same fibers, so mode i's rows are mode i + 1's. The
    swap is built only after a mode whose rows took the full unfolding's
    elimination (and after a mode that reused such rows): the first fibers
    settle a mode for less than the swap.

    known, if given, stands in for mode start's first fibers: integer
    vectors of its mode subspace that span them, such as their echelon rows.
    """
    # every mode's first fibers in one batch, and the level's integer
    # numerators (one group of one run), read by the first full unfolding
    firsts = batch([_first_fibers(e, d, k, d ** (k - mode), live) for mode in range(start + (known is not None), k + 1)])
    if known is not None:
        firsts.insert(0, iter(known))
    parsed: list[Sequence[int]] = []

    def whole() -> Sequence[int]:
        if not parsed:
            parsed.append(next(batch([iter([e])])[0]))
        return parsed[0]

    unfolded: list[bool] = []  # set by _spanning_fibers when it eliminates the full unfolding
    for mode in range(start, k + 1):
        stride = d ** (k - mode)
        if unfolded:
            # the entries whose other letters are all live[0] form a d x d
            # matrix in the two swapped letters, which the swap transposes:
            # when it is not symmetric, as at a path in a non-coordinate
            # hyperplane, the whole level is not swapped
            nums = whole()
            base = live[0] * (sum(d**p for p in range(k)) - (d + 1) * stride)
            corner = nums[base : base + d * d * stride : stride]
            if all(corner[a * d : (a + 1) * d] == corner[a::d] for a in range(d)) and graded.swap_positions(nums, d, k, mode - 2) == nums:
                yield rows
                continue
            unfolded.clear()
        rows = _echelon(_spanning_fibers(firsts[mode - start], whole, d, k, stride, unfolded), len(live))
        yield rows


def _first_fibers(e: Sequence, d: int, k: int, stride: int, live: Sequence[int]) -> Iterator[Sequence]:
    """The first |J| mode fibers of the J^k slice, in Q^d, of the mode whose
    letter has the given stride: the strided slices of the entries whose
    other letters are all live[0] but the last, which runs over J. Every
    fiber holding a dead letter is zero. Nothing is computed before the
    first fiber is read."""
    if k == 1:
        yield e
        return
    step = d if stride == 1 else 1  # the stride of the last other letter
    base = live[0] * (sum(d**p for p in range(k)) - stride - step)
    for o in (base + j * step for j in live):
        yield e[o : o + d * stride : stride]


def _unfolding_runs(e: Sequence, d: int, stride: int, i: int) -> Iterator[Sequence]:
    """Row i of that mode's unfolding, the entries whose letter there is i,
    as the fewer slices (d^(mode-1) contiguous blocks or d^(k-mode) strided
    runs), in one column order for all rows."""
    block = stride * d
    if len(e) // block <= stride:
        return (e[b : b + stride] for b in range(i * stride, len(e), block))
    return (e[i * stride + off :: block] for off in range(stride))


def _spanning_fibers(first: Iterator[Sequence[int]], whole: Callable[[], Sequence[int]], d: int, k: int, stride: int, unfolded: list[bool]):
    """Mode fibers that span the mode subspace, read lazily by the echelon.

    A fiber is integer: a strided slice of a level's integer numerators, or
    of its plain strings parsed in one batch. The first |J| fibers of the
    live-letter slice come first, so a mode that they span stops there. Only
    if the echelon reads on, and there are more fibers, are the d unfolding
    rows built from whole(), the level's numerators over one denominator,
    which scales every fiber alike and so keeps each span; the fibers at the
    pivot columns of their _echelon, the first linearly independent ones,
    follow, and True is appended to unfolded."""
    yield from first
    if k <= 2:  # every other fiber holds a dead letter, so is zero
        return
    nums = whole()
    rows = [list(chain.from_iterable(_unfolding_runs(nums, d, stride, i))) for i in range(d)]
    unfolded.append(True)
    for c, _ in _echelon(rows, len(rows[0])):
        yield [r[c] for r in rows]


def is_concise(t: Tensor) -> bool:
    """Whether every mode subspace is Q^d; no mode after a deficient one is read."""
    return all(len(rows) == t.dim for rows in mode_echelons(t))


def symmetric_conciseness(t: Tensor) -> Subspace:
    """The minimal W with t in W^(x)k: the span of the union of the mode
    subspaces. t is symmetrically concise iff this is all of Q^d."""
    return Subspace._of_echelon(level_echelon(t), t.dim)


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
    # no level after a full sum is read
    total = echelon_sum((level_echelon(s.level(k)) for k in range(1, s.max_level + 1)), s.dim)
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
