"""Subspace inclusion against a Fraction reference.

`reference_contains` reduces the vector against the RREF basis rows over
Fraction, as Subspace.contains once did; the library now decides inclusion
by the dimension of a span through the integer echelon kernel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sigtensor.linalg import Subspace, as_vector


def reference_contains(w: Subspace, vector) -> bool:
    v = as_vector(vector)
    if len(v) != w.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    residual = list(v)
    for row in w.basis:
        lead = next(j for j, x in enumerate(row) if x != 0)
        if residual[lead] != 0:
            f = residual[lead]
            residual = [a - f * b for a, b in zip(residual, row)]
    return all(x == 0 for x in residual)


def reference_contains_subspace(w: Subspace, other: Subspace) -> bool:
    return all(reference_contains(w, row) for row in other.basis)


SETTINGS = settings(max_examples=150, deadline=None)
entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def subspaces(draw, d):
    """Spans of 0..d+1 random vectors, with low-rank, zero and full spaces."""
    kind = draw(st.sampled_from(["random", "zero", "full", "low"]))
    if kind == "zero":
        return Subspace.zero(d)
    if kind == "full":
        return Subspace.full(d)
    vectors = draw(st.lists(st.lists(entries, min_size=d, max_size=d), max_size=d + 1))
    if kind == "low" and vectors:
        # multiples of the first vector only: a line
        vectors = [[c * x for x in vectors[0]] for c in (1, 2, Fraction(-1, 3))]
    return Subspace.span(vectors, d)


@st.composite
def space_and_vector(draw):
    d = draw(st.integers(1, 5))
    w = draw(subspaces(d))
    kind = draw(st.sampled_from(["zero", "inside", "random"]))
    if kind == "zero":
        v = [0] * d
    elif kind == "inside" and w.basis:
        coeffs = draw(st.lists(entries, min_size=w.dim, max_size=w.dim))
        v = [sum(c * row[j] for c, row in zip(coeffs, w.basis)) for j in range(d)]
    else:
        v = draw(st.lists(entries, min_size=d, max_size=d))
    return w, v


@SETTINGS
@given(space_and_vector())
def test_contains_matches_the_reference(case):
    w, v = case
    assert w.contains(v) == reference_contains(w, v)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(subspaces(d), subspaces(d))))
def test_contains_subspace_matches_the_reference(pair):
    a, b = pair
    assert a.contains_subspace(b) == reference_contains_subspace(a, b)
    assert b.contains_subspace(a) == reference_contains_subspace(b, a)
    assert a.contains_subspace(a) and a.contains_subspace(Subspace.zero(a.ambient_dim))
    assert Subspace.full(a.ambient_dim).contains_subspace(a)


@pytest.mark.parametrize("w", [Subspace.zero(3), Subspace.span([[1, 2, 0]], 3), Subspace.full(3)], ids=["zero", "line", "full"])
@pytest.mark.parametrize("vector, error", [
    ([1, 2], ValueError),
    ([1, 2, 3, 4], ValueError),
    ([1, 0.5, 0], TypeError),
    ([0.0, 0, 0], TypeError),
])
def test_bad_vectors_raise_as_the_reference(w, vector, error):
    messages = []
    for contains in (w.contains, lambda v: reference_contains(w, v)):
        with pytest.raises(error) as exc:
            contains(vector)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("other", [Subspace.full(2), Subspace.span([[1, 0, 0, 1]], 4)], ids=["smaller", "larger"])
@pytest.mark.parametrize("w", [Subspace.zero(3), Subspace.span([[1, 2, 0]], 3), Subspace.full(3)], ids=["zero", "line", "full"])
def test_subspace_of_another_dimension_raises_as_the_reference(w, other):
    with pytest.raises(ValueError) as ours:
        w.contains_subspace(other)
    with pytest.raises(ValueError) as theirs:
        reference_contains_subspace(w, other)
    assert str(ours.value) == str(theirs.value) == "vector length does not match ambient dimension"
    # the zero subspace of any dimension is contained, as in the reference
    assert w.contains_subspace(Subspace.zero(5)) and reference_contains_subspace(w, Subspace.zero(5))
