"""Witnesses held as keys (graded.as_key per factor) against a Fraction
reference kept here: the JSON, the realized tensor, the Fraction view
`terms`, equality and hashing, and the JSON round trip."""

import itertools
import json
from fractions import Fraction
from math import prod

from hypothesis import given, settings, strategies as st

from sigtensor import Decomposition, decompose_s_k_alpha, s_k_alpha
from sigtensor.serialize import decomposition_from_json, decomposition_to_json, dump_json

SCALES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 4), Fraction(0)]
entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def ref_json(dim, order, terms):
    """The JSON of Fraction terms, every number written by str(Fraction)."""
    return {"dim": dim, "order": order, "terms": [
        {"coeff": str(Fraction(c)), "factors": [[str(Fraction(x)) for x in v] for v in factors]} for c, factors in terms]}


def ref_realize(dim, order, terms):
    """Entry by entry, the sum of c * prod v_j[i_j] over the terms."""
    return tuple(sum((Fraction(c) * prod((Fraction(v[i]) for v, i in zip(factors, index)), start=Fraction(1)) for c, factors in terms), Fraction(0))
                 for index in itertools.product(range(dim), repeat=order))


@st.composite
def fraction_terms(draw, dim, order):
    """Terms whose factors are pool vectors times a scale (zero, negated,
    parallel or fractional copies), with some factor lists repeated."""
    pool = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=1, max_size=3))
    factor = st.tuples(st.sampled_from(pool), st.sampled_from(SCALES)).map(lambda p: tuple(p[1] * x for x in p[0]))
    lists = draw(st.lists(st.lists(factor, min_size=order, max_size=order), min_size=1, max_size=3))
    coeff = st.one_of(st.just(Fraction(0)), entries)
    return [(draw(coeff), tuple(draw(st.sampled_from(lists)))) for _ in range(draw(st.integers(0, 6)))]


@st.composite
def witnesses(draw):
    """(dim, order, Fraction terms): either drawn terms, or the terms of
    decompose_s_k_alpha at alpha = 0..2 on increments drawn the same way."""
    dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    if order < 2 or draw(st.booleans()):
        return dim, order, draw(fraction_terms(dim, order))
    increments = [factors[0] for _, factors in draw(fraction_terms(dim, 1)) if factors] or [(Fraction(1),) * dim]
    alpha = draw(st.integers(0, 2))
    dec = decompose_s_k_alpha(increments, order, alpha)
    assert dec.realize() == s_k_alpha(increments, order, alpha)
    return dim, order, list(dec.terms)


@settings(max_examples=200, deadline=None)
@given(witnesses(), witnesses())
def test_keyed_witnesses_agree_with_the_fraction_reference(case, other):
    dim, order, terms = case
    dec = Decomposition(dim, order, terms)
    assert dec.terms == tuple((c, tuple(map(tuple, factors))) for c, factors in terms)
    assert all(type(x) is Fraction for _, factors in dec.terms for v in factors for x in v)
    assert decomposition_to_json(dec) == ref_json(dim, order, terms)
    assert dec.realize().entries == ref_realize(dim, order, terms)
    back = decomposition_from_json(json.loads(dump_json(decomposition_to_json(dec))))
    assert back == dec and hash(back) == hash(dec) and back.terms == dec.terms
    # the same values written as unreduced or int entries give an equal witness
    doubled = [(c, [[Fraction(2 * x.numerator, 2 * x.denominator) if x.denominator > 1 else int(x) for x in v] for v in factors]) for c, factors in terms]
    assert Decomposition(dim, order, doubled) == dec and hash(Decomposition(dim, order, doubled)) == hash(dec)
    other_dim, other_order, other_terms = other
    same = (dim, order, dec.terms) == (other_dim, other_order, Decomposition(other_dim, other_order, other_terms).terms)
    assert (Decomposition(other_dim, other_order, other_terms) == dec) == same


def test_a_factor_is_held_as_its_reduced_key():
    dec = Decomposition(2, 2, [(Fraction(1, 3), [(Fraction(2, 4), Fraction(1, 3)), (4, -6)])])
    assert dec.keyed == ((Fraction(1, 3), (((3, 2), 6), ((4, -6), 1))),)


def test_decomposition_keeps_its_factor_order():
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    dec = Decomposition(2, 2, [(Fraction(1), [e1, e2])])
    assert dec.terms == ((Fraction(1), (e1, e2)),)
    assert dec.realize().entries == (0, 1, 0, 0)


def test_witness_entries_are_written_in_lowest_terms():
    # the key ((1, 2), 4) holds 1/4 and 2/4; the second entry is written 1/2
    dec = Decomposition(2, 1, [(Fraction(1), [(Fraction(1, 4), Fraction(1, 2))])])
    assert dec.keyed[0][1] == (((1, 2), 4),)
    assert decomposition_to_json(dec)["terms"][0]["factors"] == [["1/4", "1/2"]]


def test_the_witness_parser_reads_each_factor_over_all_of_its_entries():
    # the first entry of the factor has denominator 2, the second 4
    blob = {"dim": 2, "order": 1, "terms": [{"coeff": "1", "factors": [["1/2", "1/4"]]}, {"coeff": "1", "factors": [["3", "1/6"]]}]}
    dec = decomposition_from_json(blob)
    assert dec.keyed == ((Fraction(1), (((2, 1), 4),)), (Fraction(1), (((18, 1), 6),)))
    assert dec.terms[0][1] == ((Fraction(1, 2), Fraction(1, 4)),)
