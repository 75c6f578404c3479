"""Scaled-integer kernel for the truncated tensor algebra.

A level is a pair (nums, den): a flat sequence of Python ints in Tensor
storage order (first index slowest) and one positive int denominator, so
entry i is nums[i] / den. Tensor owns this representation (its fields nums
and den are a reduced level). Fraction inputs are scaled to integers on
entry, so every product, bracket and term below is integer arithmetic.

Signatures of piecewise linear paths use a fixed scheme: with D the lcm of
the increment denominators, level k is stored over (k + alpha)! * D^k, and a
segment v enters through w = D * v, an integer vector (see mul_exp). The
weight alpha turns the first segment's exp(v) into sum_j v^(x)j / (j+alpha)!,
which gives the sums S_{k,alpha} of `ranks`; alpha = 0 is the signature.
Log and exp in `lie` are series evaluated by Horner steps of `product`. A sum
of weighted elementary tensors (a rank witness) is also evaluated by Horner's
rule, on the prefix trie of its factor lists (see accumulate).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import comb, factorial, gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import Iterable, Sequence

Level = tuple[Sequence[int], int]


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


def outer(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x * y for x in a for y in b]


def mul_exp(nums: list[list[int]], w: list[int], alpha: int = 0) -> None:
    """In place S <- S (x) exp(v) for levels in the (k + alpha)! * D^k scheme.

    nums[k] holds (k + alpha)! D^k S_k and w = D v. Level k of the product
    is sum_i S_i (x) v^(x)(k-i) / (k-i)!, whose numerator over
    (k + alpha)! D^k is sum_i C(k + alpha, k - i) N_i (x) w^(x)(k-i);
    Horner's rule evaluates it as T = C(k + alpha, k) N_0, then
    T = T (x) w + C(k + alpha, k - i) N_i for i = 1..k. Levels are updated
    from the top down, so each still reads the old lower levels.
    """
    for k in range(len(nums) - 1, 0, -1):
        t = [comb(k + alpha, k) * x for x in nums[0]]
        for i in range(1, k + 1):
            c = comb(k + alpha, k - i)
            n = nums[i] if c == 1 else map(mul, nums[i], repeat(c))
            t = list(map(add, outer(t, w), n))
        nums[k] = t


def signature(increments: Sequence[Sequence[Fraction]], dim: int, max_level: int, alpha: int = 0) -> list[Level]:
    """Levels 0..K of E_alpha(v_1) (x) exp(v_2) (x) ... (x) exp(v_m) for the
    increments v_1..v_m; at alpha = 0, the signature of the piecewise linear
    path. The first segment gives N_k = w^(x)k, and Chen's identity folds
    in each later one by mul_exp."""
    D = lcm(*(x.denominator for u in increments for x in u))
    first, *rest = ([x.numerator * (D // x.denominator) for x in u] for u in increments)
    nums = [[1]]
    for _ in range(max_level):
        nums.append(outer(nums[-1], first))
    for w in rest:
        mul_exp(nums, w, alpha)
    return [(n, factorial(k + alpha) * D**k) for k, n in enumerate(nums)]


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
        acc = [0] * dim**k
        for (na, da), (nb, db) in pairs:
            s = den // (da * db)
            if s != 1:
                na = [s * x for x in na]
            acc = list(map(add, acc, outer(na, nb)))
        out.append(reduced(acc, den))
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


def accumulate(terms: Iterable[tuple[Fraction, Sequence[Sequence[Fraction]]]], dim: int, order: int) -> Level:
    """sum of c * v_1 (x) ... (x) v_k over (c, (v_1, ..., v_k)) terms, by
    Horner's rule on the prefix trie of the factor lists: sum_a a (x) (the
    sum below a), one outer product per trie node instead of one per term.

    Each factor becomes an integer vector over its denominator, which moves
    into the coefficient. Sorting the factor lists makes the terms below a
    node consecutive. acc[j] is the sum below the current node at depth j
    ([] for none yet); a loop, not recursion, folds it into acc[j - 1] when
    the node is left, so the order is unbounded and one partial sum per
    depth is alive at a time.
    """
    leaves = []
    for coeff, factors in terms:
        key, den = [], coeff.denominator
        for v in factors:
            nums, scale = from_fractions(v)
            key.append(tuple(nums))
            den *= scale
        leaves.append((key, Fraction(coeff.numerator, den)))
    if not leaves:
        return [0] * dim**order, 1
    leaves.sort(key=itemgetter(0))
    den = lcm(*(q.denominator for _, q in leaves))
    acc: list[list[int]] = [[] for _ in range(order + 1)]

    def fold(depth: int) -> None:
        """Leave prev's nodes below depth, deepest first."""
        for j in range(order, depth, -1):
            v, below, above = prev[j - 1], acc[j], acc[j - 1]
            if not above:
                acc[j - 1] = outer(v, below)
            else:
                n = len(below)
                for i, x in enumerate(v):
                    if x:
                        above[i * n : (i + 1) * n] = [a + x * y for a, y in zip(above[i * n : (i + 1) * n], below)]
            acc[j] = []

    prev = leaves[0][0]
    for key, q in leaves:
        p = 0
        while p < order and key[p] == prev[p]:
            p += 1
        fold(p)
        leaf = q.numerator * (den // q.denominator)
        acc[order] = [acc[order][0] + leaf] if acc[order] else [leaf]
        prev = key
    fold(0)
    return reduced(acc[0], den)
