"""Tests for the automorphism search and the induced coordinate action."""

from __future__ import annotations

import random
import re
from itertools import permutations

import pytest

from pfverify import symmetry
from pfverify.exact import ratfunc_eq, ratfunc_from_text
from pfverify.pfield import (
    VerificationError,
    associates,
    builtin_specs,
    factor_over_generators,
    fundamental_table,
    parse_field_spec,
)


@pytest.fixture(scope="module")
def specs():
    return builtin_specs()


def group(name: str):
    return symmetry.find_automorphisms(builtin_specs()[name])


def entry_for(name: str, text: str):
    spec = builtin_specs()[name]
    table = fundamental_table(spec)
    fe = factor_over_generators(spec, ratfunc_from_text(text, spec.var_names))
    return table.by_element[fe]


# ---------------------------------------------------------------------------
# Group orders


def test_gaussian_group_has_two_elements() -> None:
    assert len(group("H2").elements) == 2


def test_single_variable_group_has_six_elements() -> None:
    assert len(group("H3").elements) == 6


def test_two_variable_group_has_24_elements() -> None:
    assert len(group("H4").elements) == 24


def test_three_variable_group_has_720_elements() -> None:
    assert len(group("H5").elements) == 720


# ---------------------------------------------------------------------------
# Known images


def test_single_variable_images_are_the_associates_of_the_variable(specs) -> None:
    a = ratfunc_from_text("a", ("a",))
    expected = associates(a)
    images = [aut.var_images[0].value for aut in group("H3").elements]
    assert len(images) == 6
    for img in images:
        assert any(ratfunc_eq(img, e) for e in expected)
    for e in expected:
        assert any(ratfunc_eq(img, e) for img in images)


def test_identity_is_in_every_group(specs) -> None:
    for name in ("H2", "H3", "H4", "H5"):
        g = group(name)
        spec = specs[name]
        n = len(spec.generators)
        identity = tuple(
            symmetry.FactoredElement(1, tuple(int(i == j) for j in range(n)))
            for i in range(n)
        )
        assert any(aut.gen_images == identity for aut in g.elements)


def test_reciprocal_complement_map_is_an_automorphism(specs) -> None:
    # a -> 1/(1 - a)
    entry = entry_for("H3", "1/(1 - a)")
    table = fundamental_table(specs["H3"])
    assert symmetry.confirm_candidate(specs["H3"], table, (entry,))


def test_shifted_reciprocal_square_map_is_not_an_automorphism(specs) -> None:
    # a -> (a - 1)/a^2 is fundamental but does not extend to a symmetry.
    entry = entry_for("H3", "(a - 1)/(a^2)")
    table = fundamental_table(specs["H3"])
    assert not symmetry.confirm_candidate(specs["H3"], table, (entry,))


def test_zero_generator_image_is_rejected_exactly(specs) -> None:
    # (a, b) -> (a, 1/a) sends the generator a*b - 1 to zero.
    spec = specs["H4"]
    table = fundamental_table(spec)
    pair = (entry_for("H4", "a"), entry_for("H4", "1/a"))
    assert symmetry.confirm_candidate(spec, table, pair) is None


def test_known_two_variable_image_pair_is_found() -> None:
    first = entry_for("H4", "1 - b")
    second = entry_for("H4", "a*(1 - b)/(a + b - 2*a*b)")
    assert any(
        aut.var_images == (first, second) for aut in group("H4").elements
    )


# ---------------------------------------------------------------------------
# Search


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_search_matches_brute_force_over_all_tuples(specs, name) -> None:
    # Every ordered tuple of distinct nonzero-one fundamentals goes to the
    # exact check, unfiltered: 24 on H3, 2,862 on H4.
    spec = specs[name]
    table = fundamental_table(spec)
    brute = set()
    for images in permutations(table.nonzero_one, spec.arity):
        aut = symmetry.confirm_candidate(spec, table, images)
        if aut is not None:
            brute.add(aut.gen_images)
    assert brute == set(group(name).by_gen_images)


def test_search_leaves_are_exactly_the_symmetries(specs) -> None:
    # One candidate per permutation of the 3 / 4 / 6 GF(5) coordinates, and
    # the exact check confirms every one.
    for name, order in (("H3", 6), ("H4", 24), ("H5", 720)):
        spec = specs[name]
        leaves = symmetry._candidate_tuples(spec, fundamental_table(spec))
        assert len(leaves) == len(group(name).elements) == order


@pytest.mark.parametrize("name, width", [("H3", 3), ("H4", 4), ("H5", 6)])
def test_gf5_homomorphisms_are_exactly_the_coordinates(specs, name, width) -> None:
    spec = specs[name]
    homs = symmetry._gf5_homomorphisms(spec)
    assert len(homs) == width
    assert set(homs) == set(zip(*spec.gf5_var_images))


def _without_last_coordinate(text: str) -> str:
    return "".join(
        line.rsplit(" ", 1)[0] + "\n" if line.startswith("gf5map ") else line
        for line in text.splitlines(keepends=True)
    )


@pytest.mark.parametrize("name", ["H3", "H4", "H5"])
def test_a_homomorphism_missing_from_the_coordinates_fails(specs, name) -> None:
    # Negative control for the search's completeness premise.  The table
    # build of the cut spec would stop first, on colliding GF(5) images, so
    # the check runs on the cut spec directly.
    spec = specs[name]
    cut = parse_field_spec(_without_last_coordinate(spec.source_text))
    assert cut.gf5_width == spec.gf5_width - 1
    missing = ", ".join(
        f"{v} = {row[-1]}" for v, row in zip(spec.var_names, spec.gf5_var_images)
    )
    fail = f"{name}: the GF(5) homomorphism at {missing} is no gf5map coordinate"
    with pytest.raises(VerificationError) as exc:
        symmetry._gf5_homomorphisms(cut)
    assert str(exc.value) == fail
    with pytest.raises(VerificationError, match=re.escape(fail)):
        symmetry._candidate_tuples(cut, fundamental_table(spec))


# ---------------------------------------------------------------------------
# Confirmation plan


def test_builtin_fields_have_complete_confirmation_plans(specs) -> None:
    # One step per generator that is neither the sign nor an indeterminate.
    for name, steps in (("H3", 2), ("H4", 4), ("H5", 6)):
        plan = symmetry._confirmation_plan(specs[name])
        assert plan is not None
        assert len(plan[1]) == steps
    assert symmetry._confirmation_plan(specs["H2"]) is None


def _outcome(aut):
    return None if aut is None else (aut.gen_images, aut.coord_perm)


def _substituted(spec, table, images):
    """confirm_candidate's verdict without a plan: substitute and factor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "_confirmation_plan", lambda spec: None)
        return _outcome(symmetry.confirm_candidate(spec, table, images))


def _sampled_tuples(name, kind):
    spec = builtin_specs()[name]
    entries = fundamental_table(spec).nonzero_one
    rng = random.Random(f"{name}-{kind}")
    if kind == "symmetries":
        auts = group(name).elements
        return [aut.var_images for aut in rng.sample(auts, min(30, len(auts)))]
    picked = {}
    while len(picked) < 300:
        picked.setdefault(tuple(rng.sample(entries, spec.arity)))
    return list(picked)


@pytest.mark.parametrize(
    "name, kind",
    [("H4", "symmetries"), ("H4", "tuples"), ("H5", "symmetries"), ("H5", "tuples")],
)
def test_plan_and_substitution_agree(specs, name, kind) -> None:
    # All 24 H4 symmetries, 30 of H5's 720, and 300 seeded ordered tuples
    # of distinct nonzero-one fundamentals on each field.
    spec = specs[name]
    table = fundamental_table(spec)
    tuples = _sampled_tuples(name, kind)
    accepted = 0
    for images in tuples:
        planned = _outcome(symmetry.confirm_candidate(spec, table, images))
        assert planned == _substituted(spec, table, images), images
        accepted += planned is not None
    if kind == "symmetries":
        assert accepted == len(tuples) == min(30, len(group(name).elements))
    else:
        assert accepted < len(tuples)


def _group_data(g):
    return (
        [aut.var_images for aut in g.elements],
        [aut.gen_images for aut in g.elements],
        [aut.coord_perm for aut in g.elements],
        g.identity_index,
    )


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_search_without_a_plan_finds_the_same_group(specs, monkeypatch, name) -> None:
    planned = symmetry.find_automorphisms(specs[name])
    monkeypatch.setattr(symmetry, "_confirmation_plan", lambda spec: None)
    # The undecorated search, so that the memo keeps the planned group.
    substituted = symmetry.find_automorphisms.__wrapped__(specs[name])
    assert _group_data(substituted) == _group_data(planned)


def test_planned_search_needs_no_polynomial_arithmetic(specs, monkeypatch) -> None:
    for name in ("H3", "H4", "H5"):
        fundamental_table(specs[name])
    symmetry._confirmation_plan.cache_clear()

    def refuse(*args):
        raise AssertionError("polynomial arithmetic in the planned search")

    monkeypatch.setattr(symmetry, "factor_over_generators", refuse)
    monkeypatch.setattr(symmetry, "ratfunc_subst", refuse)
    for name in ("H3", "H4", "H5"):
        found = symmetry.find_automorphisms.__wrapped__(specs[name])
        assert _group_data(found) == _group_data(group(name))


# ---------------------------------------------------------------------------
# Induced coordinate permutations


def test_induced_permutations_realize_every_coordinate_permutation(specs) -> None:
    for name in ("H2", "H3", "H4", "H5"):
        g = group(name)
        width = specs[name].gf5_width
        perms = {aut.coord_perm for aut in g.elements}
        assert perms == set(permutations(range(width)))


# ---------------------------------------------------------------------------
# Group structure


def test_composition_closes_exhaustively_on_small_groups() -> None:
    for name in ("H2", "H3", "H4"):
        g = group(name)
        for x in g.elements:
            for y in g.elements:
                composite = symmetry.compose_gen_images(g, x, y)
                assert composite in g.by_gen_images


def test_composition_closes_on_random_large_group_pairs() -> None:
    g = group("H5")
    rng = random.Random(20260817)
    for _ in range(200):
        x = rng.choice(g.elements)
        y = rng.choice(g.elements)
        composite = symmetry.compose_gen_images(g, x, y)
        assert composite in g.by_gen_images


def test_every_small_group_element_has_an_inverse() -> None:
    for name in ("H3", "H4"):
        g = group(name)
        identity = g.elements[g.identity_index].gen_images
        for x in g.elements:
            assert any(
                symmetry.compose_gen_images(g, x, y) == identity
                for y in g.elements
            )


def test_automorphisms_permute_the_fundamental_table() -> None:
    g = group("H3")
    table = g.table
    for aut in g.elements:
        images = {symmetry.apply_automorphism(aut, e.element) for e in table.entries}
        assert images == set(table.by_element)
