import random
from fractions import Fraction

import pytest

from sigtensor import (
    Path,
    Word,
    chen_concat,
    check_shuffle_identity,
    flatten,
    gl_act,
    iterated_integral_entry,
    pwl_signature,
    segment_signature,
    time_series_to_path,
    words_of_length,
)
from sigtensor.symmetry import is_symmetric


def test_segment_signature_basis_vector():
    sig = segment_signature([1, 0], 3)
    assert sig.level(0).entries[0] == 1
    assert sig.level(1)[(1,)] == 1
    assert sig.level(2)[(1, 1)] == Fraction(1, 2)
    assert sig.level(3)[(1, 1, 1)] == Fraction(1, 6)
    assert all(sig.level(k)[idx] == 0 for k in (1, 2, 3) for idx in sig.level(k).indices() if 2 in idx)


def test_segment_signature_zero_vector():
    sig = segment_signature([0, 0, 0], 3)
    assert sig.level(0).entries[0] == 1
    assert all(sig.level(k).is_zero for k in (1, 2, 3))


def test_segment_signature_scaled():
    sig = segment_signature([2], 2)
    assert sig.level(2)[(1, 1)] == 2  # (2*2)/2!


def test_chen_two_axis_segments_level2():
    a = segment_signature([1, 0], 2)
    b = segment_signature([0, 1], 2)
    t = chen_concat(a, b).level(2)
    assert t[(1, 1)] == Fraction(1, 2)
    assert t[(1, 2)] == 1
    assert t[(2, 2)] == Fraction(1, 2)
    assert t[(2, 1)] == 0


def test_chen_unit():
    from sigtensor import TruncatedSignature

    sig = pwl_signature(Path.from_increments([[1, 2], [0, 1]]), 3)
    unit = TruncatedSignature.trivial(2, 3)
    assert chen_concat(sig, unit) == sig
    assert chen_concat(unit, sig) == sig


def test_chen_collinear_segments_form_segment():
    v = [3, -1]
    twice = chen_concat(segment_signature(v, 4), segment_signature(v, 4))
    assert twice == segment_signature([2 * x for x in v], 4)


def test_chen_associative():
    rng = random.Random(2)
    sigs = [segment_signature([rng.randint(-3, 3) for _ in range(3)], 3) for _ in range(3)]
    a, b, c = sigs
    assert chen_concat(chen_concat(a, b), c) == chen_concat(a, chen_concat(b, c))


def test_pwl_signature_axis_level3_coefficients():
    sig = pwl_signature(Path.from_increments([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
    t = sig.level(3)
    sixth = Fraction(1, 6)
    half = Fraction(1, 2)
    expected = {
        (1, 1, 1): sixth, (1, 1, 2): half, (1, 1, 3): half, (2, 2, 2): sixth,
        (2, 2, 3): half, (1, 2, 2): half, (1, 2, 3): Fraction(1), (1, 3, 3): half,
        (2, 3, 3): half, (3, 3, 3): sixth,
    }
    for idx in t.indices():
        assert t[idx] == expected.get(idx, Fraction(0))


def test_pwl_single_segment_is_segment_signature():
    assert pwl_signature(Path.from_increments([[1, 2, 3]]), 4) == segment_signature([1, 2, 3], 4)


def test_pwl_signature_refuses_a_negative_level():
    # the kernel's weights 1/k! would fail first, with a message naming no precondition
    with pytest.raises(ValueError) as exc:
        pwl_signature(Path.from_increments([[1, 2]]), -1)
    assert str(exc.value) == "max_level must be >= 0"


def test_oracle_segment_pair_entry():
    path = Path.from_increments([[2, 5]])
    assert iterated_integral_entry(path, Word.of(1, 2)) == Fraction(2 * 5, 2)
    assert iterated_integral_entry(path, Word.of(2, 1)) == Fraction(5 * 2, 2)


def test_oracle_empty_word():
    path = Path.from_increments([[1, 1], [2, 0]])
    assert iterated_integral_entry(path, Word(())) == 1


def test_oracle_axis_word_123():
    path = Path.from_increments([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert iterated_integral_entry(path, Word.of(1, 2, 3)) == 1


def test_oracle_rejects_bad_letter():
    path = Path.from_increments([[1, 0]])
    with pytest.raises(ValueError):
        iterated_integral_entry(path, Word.of(3))


def test_pwl_matches_oracle_on_random_paths():
    rng = random.Random(17)
    for _ in range(4):
        d = rng.randint(1, 3)
        m = rng.randint(1, 4)
        path = Path.from_increments([[rng.randint(-3, 3) for _ in range(d)] for _ in range(m)], dim=d)
        sig = pwl_signature(path, 4)
        for n in range(5):
            for word in words_of_length(d, n):
                got = sig.level(n).entries[0] if n == 0 else sig.level(n)[word.letters]
                assert got == iterated_integral_entry(path, word)


def test_shuffle_identity_delegated():
    path = Path.from_increments([[1, 2], [-1, 3], [2, 0]])
    assert check_shuffle_identity(pwl_signature(path, 4), 4) is None


def test_segment_characterization():
    # every level of a segment signature is symmetric with all flattenings of rank <= 1
    sig = segment_signature([2, -1, 1], 4)
    for k in range(2, 5):
        t = sig.level(k)
        assert is_symmetric(t)
        for rows in [(1,), (1, 2), (2,), (1, 3)]:
            if max(rows) <= k and len(rows) < k:
                assert flatten(t, rows).rank <= 1


def test_gl_equivariance():
    rng = random.Random(23)
    path = Path.from_increments([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)], dim=3)
    m = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]
    moved = Path.from_increments(
        [[sum(m[i][j] * u[j] for j in range(3)) for i in range(3)] for u in path.increments], dim=3
    )
    sig = pwl_signature(path, 3)
    moved_sig = pwl_signature(moved, 3)
    for k in range(0, 4):
        assert moved_sig.level(k) == gl_act(m, sig.level(k))


def test_time_series_differencing():
    path = time_series_to_path([[0, 0], [1, 0], [1, 1]])
    assert path.increments == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_time_series_constant():
    path = time_series_to_path([[2, 2], [2, 2], [2, 2]])
    assert all(all(x == 0 for x in u) for u in path.increments)
    sig = pwl_signature(path, 3)
    assert all(sig.level(k).is_zero for k in (1, 2, 3))


def test_time_series_translation_invariance():
    a = time_series_to_path([[0, 1], [2, 3], [1, 5]])
    b = time_series_to_path([[7, 8], [9, 10], [8, 12]])
    assert a == b


def test_time_series_needs_two_samples():
    with pytest.raises(ValueError):
        time_series_to_path([[1, 2]])
