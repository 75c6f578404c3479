"""Scaled-integer kernel for the truncated tensor algebra.

A level is a pair (nums, den): a flat sequence of Python ints in Tensor
storage order (first index slowest) and one positive int denominator, so
entry i is nums[i] / den. Tensor owns this representation (its fields nums
and den are a reduced level). Fraction inputs are scaled to integers on
entry, so every product, bracket and term below is integer arithmetic.

Signatures of piecewise linear paths use a fixed scheme: with D the lcm of
the increment denominators, level k is stored over (k + alpha)! * D^k, and a
segment v enters through w = D * v, an integer vector. The weight alpha
turns the first segment's exp(v) into sum_j v^(x)j / (j+alpha)!, which gives
the sums S_{k,alpha} of `ranks`; alpha = 0 is the signature. Log and exp in
`lie` are series evaluated by Horner steps of `product`. A sum of weighted
elementary tensors (a rank witness, each factor a Key) is also evaluated by
Horner's rule, on the prefix trie of its factor lists (see accumulate).

Inside signature and accumulate a level is packed into one Python int,
entry j in a signed field of `width` bits at bit width * j (Kronecker
substitution). A letter then goes in front of a level by a shift: w (x) t is
sum_l w_l t << l |t| width, d big-int multiply-adds instead of d |t| Python
products (see _prepend), so both fold their sums from the right, each
factor entering by left multiplication. The packed int is the exact value
of a polynomial in 2^width, so sums and prepends never lose information; a
level is read back once (see _unpack), which is exact when each entry is
below 2^(width - 1) in absolute value. The width comes from a bound that
holds by construction. For a signature, with L = sum_s ||w_s||_1, every
entry of level k is at most (k + alpha)!/k! L^k, which is the 1-D path of
the l1 norms expanded by the multinomial theorem, since (j + alpha)! >= j!.
For a witness it is sum |c| prod ||v||_1 over its terms.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, lcm, prod
from operator import add, itemgetter, sub
from typing import Iterable, Sequence

Level = tuple[Sequence[int], int]
Key = tuple[tuple[int, ...], int]


def from_fractions(entries: Sequence[Fraction]) -> Level:
    den = lcm(*(x.denominator for x in entries))
    if den == 1:
        return [x.numerator for x in entries], 1
    return [x.numerator * (den // x.denominator) for x in entries], den


def reduced(nums: Sequence[int], den: int) -> Level:
    """Divide numerators and denominator by their gcd."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [n // g for n in nums], den // g


def as_key(nums: Sequence[int], den: int) -> Key:
    """The vector nums / den as a Key, unique to it: keys compare and hash as their vectors."""
    nums, den = reduced(nums, den)
    return tuple(nums), den


def outer(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x * y for x in a for y in b]


def _width(bound: int) -> int:
    """Bits per field of a packed level: whole 64-bit words that hold a sign
    bit and every entry up to bound in absolute value."""
    return 64 * ((bound.bit_length() + 64) // 64)


def _prepend(w: Sequence[int], t: int, step: int) -> int:
    """w (x) t on packed levels, where t spans step bits: entry l * |t| + j
    of the product is w_l t_j, so letter l of w shifts t by l * step."""
    out = 0
    for l, x in enumerate(w):
        if x:
            out += x * t << l * step
    return out


def _unpack(v: int, n: int, width: int) -> list[int]:
    """The n entries of a packed level, entry j in the signed field of width
    bits at bit width * j.

    Adding 2^(width - 1) to every field makes each one nonnegative, so the
    fields are the base-2^width digits of the sum; flipping that bit back
    leaves each field in two's complement, which is how its bytes are read.
    """
    size = width // 8
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    data = ((v + offset) ^ offset).to_bytes(n * size, "little")
    if width > 64:
        return [int.from_bytes(data[i : i + size], "little", signed=True) for i in range(0, len(data), size)]
    return little_endian(array("q", data)).tolist()


def little_endian(fields: array) -> array:
    """The array's items in little-endian byte order, swapped in place on a
    big-endian machine; as items are stored in native order, the same swap
    turns little-endian items back into native ones."""
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def signature(increments: Sequence[Sequence[Fraction]], dim: int, max_level: int, alpha: int = 0) -> list[Level]:
    """Levels 0..K of E_alpha(v_1) (x) exp(v_2) (x) ... (x) exp(v_m) for the
    increments v_1..v_m; at alpha = 0, the signature of the piecewise linear
    path.

    Levels are packed (see the module docstring), and segments enter from
    the right, each by left multiplication. exp(v_m) gives N_k = w_m^(x)k.
    Level k of E_a(v_s) (x) X, with E_0 = exp, is
    sum_i v_s^(x)(k-i) / (k - i + a)! (x) X_i, whose numerator over
    (k + a)! D^k is sum_i C(k + a, i) w_s^(x)(k-i) (x) N_i; a = alpha at
    s = 1 and 0 before. Horner's rule evaluates it as T = N_0, then
    T = w_s (x) T + C(k + a, i) N_i for i = 1..k. Levels are updated from
    the top down, so each still reads the old lower levels.
    """
    flat, D = from_fractions([x for u in increments for x in u])
    ws = [flat[s * dim : (s + 1) * dim] for s in range(len(increments))]
    norm = sum(abs(x) for w in ws for x in w)
    *rest, last = ws
    width = _width(factorial(max_level + alpha) // factorial(max_level) * norm**max_level)
    steps = [dim**k * width for k in range(max_level + 1)]
    nums = [1]
    for k in range(max_level):
        nums.append(_prepend(last, nums[k], steps[k]))
    for s in range(len(rest) - 1, -1, -1):
        w, a = rest[s], alpha if s == 0 else 0
        for k in range(max_level, 0, -1):
            t = nums[0]
            for i in range(1, k + 1):
                t = _prepend(w, t, steps[i - 1]) + comb(k + a, i) * nums[i]
            nums[k] = t
    return [(_unpack(n, dim**k, width), factorial(k + alpha) * D**k) for k, n in enumerate(nums)]


def product(a: Sequence[Level], b: Sequence[Level], dim: int) -> list[Level]:
    """Truncated product: level k is sum_i a_i (x) b_(k-i), for k up to the
    truncation len(a) - 1. b may be one level shorter when a_0 is zero,
    since its top level would only meet a_0."""
    live_a = [any(n) for n, _ in a]
    live_b = [any(n) for n, _ in b]
    out = []
    for k in range(len(a)):
        pairs = [(a[i], b[k - i]) for i in range(k + 1) if live_a[i] and live_b[k - i]]
        den = lcm(*(da * db for (_, da), (_, db) in pairs))
        acc = None
        for (na, da), (nb, db) in pairs:
            s = den // (da * db)
            if s != 1:
                if len(na) <= len(nb):
                    na = [s * x for x in na]
                else:
                    nb = [s * x for x in nb]
            t = outer(na, nb)
            acc = t if acc is None else list(map(add, acc, t))
        out.append(([0] * dim**k, 1) if acc is None else reduced(acc, den))
    return out


def dynkin(nums: Sequence[int], dim: int, order: int) -> list[int]:
    """Left-to-right bracketing on the coefficients of an order-k tensor.

    D_k = (1 - c_k)(D_(k-1) (x) id) with c_r moving letter r of a word to
    the front, so D_k = (1 - c_k) ... (1 - c_2). On coefficients, 1 - c_r
    subtracts the array with its first r letters rotated: blocks of size
    d^(k-r) indexed by (u_1, m) are read from (m, u_1), a d x d^(r-1)
    block transpose. Each pass is O(d^k), k - 1 passes in all.
    """
    a = list(nums)
    for r in range(2, order + 1):
        size = dim ** (order - r)
        blocks = a if size == 1 else list(zip(*[iter(a)] * size))
        moved = [blk for u1 in range(dim) for blk in blocks[u1::dim]]
        if size > 1:
            moved = list(chain.from_iterable(moved))
        a = list(map(sub, a, moved))
    return a


def swap_positions(nums: Sequence[int], dim: int, order: int, pos: int) -> tuple[int, ...]:
    """The coefficients of an order-k tensor with letters pos and pos + 1
    (0-based) swapped. Inside each prefix of pos letters the entries form d
    x d runs of d^(k-2-pos), run (a, b) for those two letters; the output's
    run (a, b) is the input's (b, a). Slicing the list of runs with step d^2
    gathers one (b, a) run of every prefix, and zipping the d^2 slices in
    output order interleaves them back, prefix by prefix, as dynkin builds
    its rotation. A tuple, so that it compares equal to Tensor.nums."""
    size = dim ** (order - 2 - pos)
    runs = nums if size == 1 else list(zip(*[iter(nums)] * size))
    square = dim * dim
    moved = chain.from_iterable(zip(*[runs[b * dim + a :: square] for a in range(dim) for b in range(dim)]))
    return tuple(chain.from_iterable(moved) if size > 1 else moved)


def accumulate(terms: Iterable[tuple[Fraction, Sequence[Key]]], dim: int, order: int) -> Level:
    """sum of c * v_1 (x) ... (x) v_k over (c, (v_1, ..., v_k)) terms, each
    factor a Key, by Horner's rule on the prefix trie of the factor lists:
    sum_a a (x) (the sum below a), one packed prepend per trie node instead
    of one outer product per term.

    Each factor enters as its integer numerators, its denominator moving
    into the coefficient. Sorting the factor lists makes the terms below a
    node consecutive. acc[j] is the packed sum below the current node at
    depth j; a loop, not recursion, folds it into acc[j - 1] when the node
    is left, so the order is unbounded and one partial sum per depth is
    alive at a time. No entry of the sum exceeds sum |c| prod ||v||_1 over
    the integer terms, which sets the width.
    """
    leaves = [([n for n, _ in keys], Fraction(c.numerator, c.denominator * prod(den for _, den in keys))) for c, keys in terms]
    if not leaves:
        return [0] * dim**order, 1
    leaves.sort(key=itemgetter(0))
    coeffs, den = from_fractions([q for _, q in leaves])
    width = _width(sum(abs(c) * prod(sum(map(abs, v)) for v in key) for (key, _), c in zip(leaves, coeffs)))
    steps = [dim ** (order - j) * width for j in range(order + 1)]
    acc = [0] * (order + 1)

    def fold(depth: int) -> None:
        """Leave prev's nodes below depth, deepest first."""
        for j in range(order, depth, -1):
            acc[j - 1] += _prepend(prev[j - 1], acc[j], steps[j])
            acc[j] = 0

    prev = leaves[0][0]
    for (key, _), c in zip(leaves, coeffs):
        p = 0
        while p < order and key[p] == prev[p]:
            p += 1
        fold(p)
        acc[order] += c
        prev = key
    fold(0)
    return reduced(_unpack(acc[0], dim**order, width), den)
