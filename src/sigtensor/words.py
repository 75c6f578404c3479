"""Words over the alphabet {1..d}, homogeneous integer word sums, and the
shuffle product.

The shuffle of two words is the formal sum of all order-preserving
interleavings; word sums evaluate against a truncated signature by reading
each word off the tensor level of its length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .signatures import TruncatedSignature


@dataclass(frozen=True, order=True)
class Word:
    letters: tuple[int, ...]

    def __post_init__(self):
        if any(i < 1 for i in self.letters):
            raise ValueError("letters must be positive integers")

    @staticmethod
    def of(*letters: int) -> "Word":
        return Word(tuple(letters))

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse "1324" (single-digit alphabet) or "1,3,2,4"."""
        text = text.strip()
        if not text:
            return Word(())
        if "," in text:
            return Word(tuple(int(p) for p in text.split(",")))
        return Word(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        if all(i <= 9 for i in self.letters):
            return "".join(str(i) for i in self.letters)
        return ",".join(str(i) for i in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


class WordSum:
    """An integer combination of words, all of the same length.

    Zero coefficients are dropped on construction; heterogeneous sums are
    rejected since shuffles are homogeneous.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int]):
        cleaned = {w: c for w, c in terms.items() if c != 0}
        lengths = {len(w) for w in cleaned}
        if len(lengths) > 1:
            raise ValueError("word sum must be homogeneous in word length")
        object.__setattr__(self, "terms", dict(cleaned))

    @staticmethod
    def single(word: Word, coeff: int = 1) -> "WordSum":
        return WordSum({word: coeff})

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "WordSum") -> "WordSum":
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return WordSum(merged)

    def __rmul__(self, c: int) -> "WordSum":
        return WordSum({w: c * v for w, v in self.terms.items()})

    def total_mass(self) -> int:
        return sum(self.terms.values())

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "WordSum(0)"
        parts = [f"{c}*{w}" for w, c in self.items()]
        return "WordSum(" + " + ".join(parts) + ")"


def shuffle(v: Word, w: Word) -> WordSum:
    """Shuffle product of two words as a homogeneous WordSum.

    Bottom-up over prefix pairs: shuffle(v[:i], w[:j]) is shuffle(v[:i-1], w[:j])
    followed by v[i-1] plus shuffle(v[:i], w[:j-1]) followed by w[j-1]. Two rows
    over the shorter word are kept; a word is a str, one character per distinct
    letter, which grows by a byte copy where a tuple would count references.
    """
    long, short = (v.letters, w.letters) if len(v) >= len(w) else (w.letters, v.letters)
    alphabet = sorted(set(long) | set(short))
    code = {letter: chr(k) for k, letter in enumerate(alphabet)}
    long, short = [code[x] for x in long], [code[x] for x in short]
    row = [{"".join(short[:j]): 1} for j in range(len(short) + 1)]
    for a in long:
        cells = [{word + a: c for word, c in row[0].items()}]
        for j, b in enumerate(short, 1):
            acc = {word + a: c for word, c in row[j].items()}
            for word, c in cells[j - 1].items():
                key = word + b
                acc[key] = acc.get(key, 0) + c
            cells.append(acc)
        row = cells
    return WordSum({Word(tuple(alphabet[ord(x)] for x in word)): c for word, c in row[-1].items()})


def evaluate(sig: "TruncatedSignature", ws: WordSum | Word) -> Fraction:
    """Evaluate a word (or word sum) against a truncated signature.

    The empty word reads the constant term; a word of length k reads one
    entry of level k. Raises if any word exceeds the truncation level.
    """
    if isinstance(ws, Word):
        ws = WordSum.single(ws)
    total = Fraction(0)
    for word, coeff in ws.terms.items():
        k = len(word)
        if k > sig.max_level:
            raise ValueError(f"level exceeded: word of length {k} against truncation {sig.max_level}")
        total += coeff * sig.level(k)[word.letters]
    return total


def words_of_length(d: int, n: int):
    """All words of length n over {1..d}, lexicographic."""
    for letters in itertools.product(range(1, d + 1), repeat=n):
        yield Word(letters)


def check_shuffle_identity(sig: "TruncatedSignature", max_level: int) -> tuple[Word, Word] | None:
    """Check sigma_v * sigma_w == sigma_{v shuffle w} for all pairs with
    |v| + |w| <= max_level.

    Returns None when the identity holds, otherwise the first violating pair
    in the deterministic scan order: by |v|, then |w|, then lexicographic v,
    then lexicographic w.
    """
    if max_level > sig.max_level:
        raise ValueError("max_level exceeds the signature truncation level")
    d = sig.dim
    for n_v in range(0, max_level + 1):
        for n_w in range(0, max_level - n_v + 1):
            for v in words_of_length(d, n_v):
                sig_v = evaluate(sig, v)
                for w in words_of_length(d, n_w):
                    lhs = sig_v * evaluate(sig, w)
                    rhs = evaluate(sig, shuffle(v, w))
                    if lhs != rhs:
                        return (v, w)
    return None
