"""Tests for the automorphism search and the induced coordinate action."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from pfverify import symmetry
from pfverify.exact import (
    ModMap,
    mod_eval,
    ratfunc_eq,
    ratfunc_eval_mod,
    ratfunc_from_text,
)
from pfverify.pfield import (
    associates,
    builtin_specs,
    factor_over_generators,
    fundamental_table,
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


def _walk_passes(spec, table, images) -> bool:
    """Fingerprint walk: every nonzero fundamental's image residue must be
    a distinct table fingerprint.  It shares no code or condition with the
    search's seed and generator cuts, so it filters the brute force
    independently."""
    p = table.mod_map.prime
    residues = []
    for gen in spec.generators:
        r = ratfunc_eval_mod(gen, [e.fingerprint for e in images], p)
        if not r:
            return False
        residues.append(r)
    derived = ModMap(p, tuple(residues))
    live = {e.fingerprint for e in table.entries if e.element.sign != 0}
    seen = set()
    for e in table.entries:
        if e.element.sign == 0:
            continue
        image = mod_eval(derived, e.element.sign, e.element.exps)
        if image not in live or image in seen:
            return False
        seen.add(image)
    return True


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_search_matches_brute_force_over_all_tuples(specs, name) -> None:
    # H3 sends every image straight to the exact check; unfiltered, the
    # 2,862 ordered H4 pairs would take seconds, so they pass the walk first.
    spec = specs[name]
    table = fundamental_table(spec)
    brute = set()
    for images in permutations(table.nonzero_one, spec.arity):
        if name != "H3" and not _walk_passes(spec, table, images):
            continue
        aut = symmetry.confirm_candidate(spec, table, images)
        if aut is not None:
            brute.add(aut.gen_images)
    assert brute == set(group(name).by_gen_images)


def test_search_leaves_are_exactly_the_symmetries(specs) -> None:
    # Of H5's 704,880 ordered triples of distinct nonzero-one fundamentals,
    # only the 720 symmetries survive the pruning.
    for name, order in (("H3", 6), ("H4", 24), ("H5", 720)):
        spec = specs[name]
        leaves = symmetry._candidate_tuples(spec, fundamental_table(spec))
        assert len(leaves) == len(group(name).elements) == order


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
