"""Tests for the lift-construction consistency checks."""

from __future__ import annotations

from pfverify import genesis
from pfverify.exact import ratfunc_eq, ratfunc_from_text, ratfunc_is_zero
from pfverify.pfield import (
    builtin_specs,
    factor_over_generators,
    fundamental_table,
    hom_gf5,
)


def test_triple_products_are_all_ones() -> None:
    assert genesis.triple_products() == [(1, 1, 1)] * 3
    assert genesis.check_triples()


def test_first_and_third_triples_verbatim() -> None:
    assert genesis.PQR_TRIPLES[0] == ((4, 3, 2), (3, 3, 4), (3, 4, 2))
    assert genesis.PQR_TRIPLES[2] == ((3, 4, 2), (3, 2, 4), (4, 2, 2))


def test_artificial_inverse_triple_multiplies_to_one() -> None:
    triple = ((2, 2, 3), (3, 3, 2), (1, 1, 1))
    assert genesis.triple_products((triple,)) == [(1, 1, 1)]


def test_solution_satisfies_all_relations() -> None:
    residuals = genesis.relation_residuals(genesis.solved_values())
    assert len(residuals) == 3
    assert all(ratfunc_is_zero(r) for r in residuals)


def test_all_ones_violates_the_first_relation() -> None:
    one = ratfunc_from_text("1", ("a",))
    values = {name: one for name in genesis.SYMBOLS}
    residuals = genesis.relation_residuals(values)
    assert not ratfunc_is_zero(residuals[0])


def test_ambiguity_resolves_to_the_squared_numerator() -> None:
    values = genesis.solved_values()
    expected = ratfunc_from_text("(1 - a)^2/(1 - a + a^2)", ("a",))
    assert ratfunc_eq(values["s223"], expected)


def test_rejected_parse_fails_the_relations() -> None:
    values = dict(genesis.solved_values())
    values["s223"] = ratfunc_from_text("(1 - a)/(1 - a + a^2)", ("a",))
    residuals = genesis.relation_residuals(values)
    assert not all(ratfunc_is_zero(r) for r in residuals)


def test_solved_values_are_fundamental_with_matching_images() -> None:
    spec = builtin_specs()["H3"]
    table = fundamental_table(spec)
    values = genesis.solved_values()
    for name, target in zip(genesis.SYMBOLS, genesis.CROSS_RATIO_GENERATORS):
        fe = factor_over_generators(spec, values[name])
        assert fe in table.by_element
        assert hom_gf5(spec, fe) == target
