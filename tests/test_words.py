import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from sigtensor import (
    Path,
    Tensor,
    TruncatedSignature,
    Word,
    WordSum,
    check_shuffle_identity,
    evaluate,
    pwl_signature,
    segment_signature,
    shuffle,
)


def test_shuffle_12_34():
    result = shuffle(Word.parse("12"), Word.parse("34"))
    expected = WordSum({Word.parse(w): 1 for w in ["1234", "1324", "1342", "3124", "3142", "3412"]})
    assert result == expected


def test_shuffle_empty_word_is_unit():
    w = Word.parse("312")
    assert shuffle(Word(()), w) == WordSum.single(w)
    assert shuffle(w, Word(())) == WordSum.single(w)


def test_shuffle_repeated_letter():
    assert shuffle(Word.of(1), Word.of(1)) == WordSum({Word.of(1, 1): 2})


words = st.lists(st.integers(1, 3), min_size=0, max_size=4).map(lambda ls: Word(tuple(ls)))


@given(words, words)
def test_shuffle_commutative(v, w):
    assert shuffle(v, w) == shuffle(w, v)


@given(words, words)
def test_shuffle_mass(v, w):
    assert shuffle(v, w).total_mass() == comb(len(v) + len(w), len(v))


@pytest.mark.parametrize(
    "v,w,u",
    [("1", "2", "3"), ("12", "3", "1"), ("11", "22", "12"), ("1", "12", "221")],
)
def test_shuffle_associative(v, w, u):
    a, b, c = Word.parse(v), Word.parse(w), Word.parse(u)

    def extend_right(ws, other):
        total = {}
        for word, coeff in ws.items():
            for w2, c2 in shuffle(word, other).items():
                total[w2] = total.get(w2, 0) + coeff * c2
        return WordSum(total)

    def extend_left(first, ws):
        total = {}
        for word, coeff in ws.items():
            for w2, c2 in shuffle(first, word).items():
                total[w2] = total.get(w2, 0) + coeff * c2
        return WordSum(total)

    assert extend_right(shuffle(a, b), c) == extend_left(a, shuffle(b, c))


def test_word_parse_formats():
    assert Word.parse("1324").letters == (1, 3, 2, 4)
    assert Word.parse("1,3,2,4").letters == (1, 3, 2, 4)
    assert Word.parse("10,2").letters == (10, 2)
    assert str(Word.of(1, 3)) == "13"
    assert str(Word.of(12, 3)) == "12,3"


def test_word_sum_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        WordSum({Word.of(1): 1, Word.of(1, 2): 1})


def test_evaluate_empty_word_reads_constant():
    sig = segment_signature([1, 2], 3)
    assert evaluate(sig, Word(())) == 1


def test_evaluate_segment_word_11():
    sig = segment_signature([1, 0], 2)
    assert evaluate(sig, Word.of(1, 1)) == Fraction(1, 2)


def test_evaluate_shuffle_identity_entry():
    sig = pwl_signature(Path.from_increments([[1, 0, 2, 0], [0, 1, -1, 3], [2, 2, 0, 1]]), 4)
    lhs = evaluate(sig, Word.of(1, 2)) * evaluate(sig, Word.of(3, 4))
    rhs = evaluate(sig, shuffle(Word.of(1, 2), Word.of(3, 4)))
    assert lhs == rhs


def test_evaluate_level_exceeded():
    sig = segment_signature([1], 2)
    with pytest.raises(ValueError, match="level exceeded"):
        evaluate(sig, Word.of(1, 1, 1))


def test_check_shuffle_identity_holds_on_path_signature():
    sig = pwl_signature(Path.from_increments([[1, -2], [3, 1], [0, 2]]), 5)
    assert check_shuffle_identity(sig, 5) is None


def test_check_shuffle_identity_counterexample():
    # sigma_1 = 1 but sigma_11 = 0: the pair (1, 1) fails first
    levels = [
        Tensor.scalar(1, 1),
        Tensor.from_entries(1, 1, [1]),
        Tensor.from_entries(2, 1, [0]),
    ]
    sig = TruncatedSignature(1, 2, tuple(levels))
    assert check_shuffle_identity(sig, 2) == (Word.of(1), Word.of(1))


def test_check_shuffle_identity_trivial_element():
    sig = TruncatedSignature.trivial(2, 4)
    assert check_shuffle_identity(sig, 4) is None


def _shuffle_by_positions(v: Word, w: Word) -> WordSum:
    """Reference shuffle: each choice of the positions that v's letters take
    in a word of length |v| + |w| is one interleaving."""
    n = len(v) + len(w)
    total = Counter()
    for positions in itertools.combinations(range(n), len(v)):
        vs, ws, chosen = iter(v.letters), iter(w.letters), set(positions)
        total[tuple(next(vs) if i in chosen else next(ws) for i in range(n))] += 1
    return WordSum({Word(letters): c for letters, c in total.items()})


wide_words = st.lists(st.integers(1, 12), max_size=6).map(lambda ls: Word(tuple(ls)))


@given(wide_words, wide_words)
def test_shuffle_matches_interleaving_positions(v, w):
    assert shuffle(v, w) == _shuffle_by_positions(v, w)


def test_shuffle_of_1200_letter_word():
    # a recursion over prefixes went past the interpreter's recursion limit
    long = Word((1,) * 1200)
    for result in (shuffle(long, Word.of(2)), shuffle(Word.of(2), long)):
        assert len(result.terms) == 1201 and set(result.terms.values()) == {1}
        assert result.terms[Word((1,) * 7 + (2,) + (1,) * 1193)] == 1
