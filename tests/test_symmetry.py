"""Tests for the automorphism search and the induced coordinate action."""

from __future__ import annotations

import random
import re
from itertools import permutations

import pytest

from pfverify import symmetry
from pfverify.exact import (
    ratfunc_eq,
    ratfunc_eval_mod,
    ratfunc_from_text,
)
from pfverify.pfield import (
    VerificationError,
    associates,
    builtin_specs,
    factor_over_generators,
    fundamental_table,
    parse_field_spec,
)
from conftest import (
    closes,
    compose,
    element_of,
    group,
    h3_with_unused_indeterminates,
    identity_images,
    reference,
)


@pytest.fixture(scope="module")
def specs():
    return builtin_specs()


def entry_for(name: str, text: str):
    spec = builtin_specs()[name]
    table = fundamental_table(spec)
    fe = factor_over_generators(spec, ratfunc_from_text(text, spec.var_names))
    return table.by_element[fe]


# ---------------------------------------------------------------------------
# Reference: every element's exact generator images (conftest.reference)


def test_the_reference_reaches_exactly_the_group() -> None:
    for name in ("H2", "H3", "H4", "H5"):
        assert set(reference(name)) == set(group(name).elements)


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
        identity = element_of(spec, g.table, identity_images(spec))
        assert identity.coord_perm == tuple(range(spec.gf5_width))
        assert identity in g.elements


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


def _may_be_symmetry(spec, images) -> bool:
    """False when some generator vanishes mod 5 at the GF(5) images of some
    coordinate, with a nonzero denominator.  Such images are no symmetry's:
    a symmetry sigma sends each generator g to the unit sigma(g), the
    GF(5) homomorphism at a coordinate sends a unit to a nonzero residue,
    and there sigma(g) has the residue of g at the images' residues."""
    for k in range(spec.gf5_width):
        point = tuple(e.gf5_image[k] for e in images)
        if any(ratfunc_eval_mod(g, point, 5) == 0 for g in spec.generators):
            return False
    return True


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_search_matches_brute_force_over_all_tuples(specs, name) -> None:
    # Ordered tuples of distinct nonzero-one fundamentals go to the exact
    # check: all 24 on H3, and on H4 the 102 of 2,862 pairs that
    # _may_be_symmetry keeps, a necessary condition.
    spec = specs[name]
    table = fundamental_table(spec)
    tuples = [
        images
        for images in permutations(table.nonzero_one, spec.arity)
        if name == "H3" or _may_be_symmetry(spec, images)
    ]
    assert len(tuples) == {"H3": 24, "H4": 102}[name]
    brute = {
        images
        for images in tuples
        if symmetry.confirm_candidate(spec, table, images) is not None
    }
    assert brute == {aut.var_images for aut in group(name).elements}


def test_search_leaves_are_exactly_the_symmetries(specs) -> None:
    # One candidate per permutation of the 3 / 4 / 6 GF(5) coordinates, and
    # every one is a symmetry.
    for name, order in (("H3", 6), ("H4", 24), ("H5", 720)):
        spec = specs[name]
        leaves = symmetry._candidate_tuples(spec, fundamental_table(spec))
        assert len(leaves) == len(group(name).elements) == order
        assert set(leaves) == set(permutations(range(spec.gf5_width)))


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


def test_the_homomorphism_walk_stops_at_the_first_point_that_is_no_coordinate(
    monkeypatch,
) -> None:
    # Seven indeterminates in no generator, each at 1 in every coordinate:
    # the first point, all 2, is a homomorphism and no coordinate.
    spec = parse_field_spec(h3_with_unused_indeterminates(list("bcdefgh")))
    assert spec.arity == symmetry.MAX_GF5_ARITY
    calls = []
    evaluate = symmetry.ratfunc_eval_mod

    def counted(x, point, p):
        calls.append(point)
        return evaluate(x, point, p)

    monkeypatch.setattr(symmetry, "ratfunc_eval_mod", counted)
    at = ", ".join(f"{v} = 2" for v in spec.var_names)
    fail = f"H3: the GF(5) homomorphism at {at} is no gf5map coordinate"
    with pytest.raises(VerificationError) as exc:
        symmetry._gf5_homomorphisms(spec)
    assert str(exc.value) == fail
    assert calls == [(2,) * spec.arity] * len(spec.generators)


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
# Generators and composition


def _per_candidate_search(spec) -> tuple:
    """The reference search: the exact check on every candidate tuple, in
    tuple order, each confirmed one with its induced permutation."""
    table = fundamental_table(spec)
    entries = table.nonzero_one
    found = []
    for t in sorted(symmetry._candidate_tuples(spec, table).values()):
        var_images = tuple(entries[i] for i in t)
        images = symmetry.confirm_candidate(spec, table, var_images)
        if images is not None:
            perm = symmetry._induced_perm(spec, images)
            found.append(symmetry.Automorphism(var_images, perm))
    return tuple(found)


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_composed_group_equals_the_per_candidate_search(specs, name) -> None:
    assert group(name).elements == _per_candidate_search(specs[name])


def test_sampled_h5_candidates_confirm_to_the_composed_elements(specs) -> None:
    spec = specs["H5"]
    g = group("H5")
    ref = reference("H5")
    for aut in random.Random("H5-symmetries").sample(g.elements, 30):
        confirmed = symmetry.confirm_candidate(spec, g.table, aut.var_images)
        assert confirmed == ref[aut]
        assert symmetry._induced_perm(spec, confirmed) == aut.coord_perm


def _counting_confirmations(monkeypatch) -> list:
    calls = []
    confirm = symmetry.confirm_candidate

    def counted(spec, table, entries):
        calls.append(spec.name)
        return confirm(spec, table, entries)

    monkeypatch.setattr(symmetry, "confirm_candidate", counted)
    return calls


def test_only_generators_are_confirmed(specs, monkeypatch) -> None:
    # Each confirmed generator at least doubles the group, so a search over
    # symmetries alone confirms at most floor(log2 |G|) candidates.
    calls = _counting_confirmations(monkeypatch)
    for name, confirmed in (("H3", 2), ("H4", 3), ("H5", 4)):
        # The undecorated search, so that the memo plays no part.
        found = symmetry.find_automorphisms.__wrapped__(specs[name])
        assert found.elements == group(name).elements
        order = len(found.elements)
        assert calls.count(name) == confirmed <= order.bit_length() - 1


def test_non_symmetry_candidates_leave_the_group_unchanged(specs, monkeypatch) -> None:
    # The builtin candidates are every symmetry, so any other tuple is none.
    # Each is proposed under a key that is no permutation, which no product
    # reaches, as by a coordinate permutation that no symmetry induces.
    spec = specs["H4"]
    table = fundamental_table(spec)
    proposals = symmetry._candidate_tuples(spec, table)
    rng = random.Random("H4-non-symmetries")
    extra = set()
    while len(extra) < 40:
        t = tuple(rng.sample(range(len(table.nonzero_one)), spec.arity))
        if t not in proposals.values():
            extra.add(t)
    mixed = {**proposals, **{("extra", n): t for n, t in enumerate(sorted(extra))}}
    monkeypatch.setattr(symmetry, "_candidate_tuples", lambda spec, table: mixed)
    calls = _counting_confirmations(monkeypatch)
    found = symmetry.find_automorphisms.__wrapped__(spec)
    assert found.elements == group("H4").elements
    # The group never holds a non-symmetry, so each one is checked.
    assert len(calls) == 3 + len(extra)


NO_CANDIDATE = (
    r"^H4: the symmetry sending the indeterminates to \[.*\] is no candidate$"
)


def _perms_in_tuple_order(spec) -> tuple[dict, list]:
    proposals = symmetry._candidate_tuples(spec, fundamental_table(spec))
    return proposals, sorted(proposals, key=proposals.get)


@pytest.mark.parametrize("dropped", [0, 11, 23])
def test_a_product_that_no_candidate_proposes_fails(specs, monkeypatch, dropped) -> None:
    spec = specs["H4"]
    proposals, perms = _perms_in_tuple_order(spec)
    kept = {pi: t for pi, t in proposals.items() if pi != perms[dropped]}
    monkeypatch.setattr(symmetry, "_candidate_tuples", lambda spec, table: kept)
    with pytest.raises(VerificationError, match=NO_CANDIDATE):
        symmetry.find_automorphisms.__wrapped__(spec)


@pytest.mark.parametrize("first, second", [(0, 1), (5, 17), (22, 23)])
def test_a_product_proposed_under_another_permutation_fails(
    specs, monkeypatch, first, second
) -> None:
    # Two permutations swap their candidates: the same tuples are proposed,
    # so every product is some candidate, but not its own permutation's.
    spec = specs["H4"]
    proposals, perms = _perms_in_tuple_order(spec)
    a, b = perms[first], perms[second]
    swapped = {**proposals, a: proposals[b], b: proposals[a]}
    assert set(swapped.values()) == set(proposals.values())
    monkeypatch.setattr(symmetry, "_candidate_tuples", lambda spec, table: swapped)
    with pytest.raises(VerificationError, match=NO_CANDIDATE):
        symmetry.find_automorphisms.__wrapped__(spec)


@pytest.mark.parametrize("factored", ["no-unit", "one"])
def test_an_indeterminate_outside_the_table_fails(specs, monkeypatch, factored) -> None:
    spec = specs["H4"]
    one = symmetry.FactoredElement(1, (0,) * len(spec.generators))

    def factor(spec, x):
        if factored == "one":
            return one
        raise ValueError("not a unit")

    monkeypatch.setattr(symmetry, "factor_over_generators", factor)
    with pytest.raises(
        VerificationError, match="^H4: indeterminate a is no nonzero-one fundamental$"
    ):
        symmetry.find_automorphisms.__wrapped__(spec)


# ---------------------------------------------------------------------------
# Induced coordinate permutations


def test_induced_permutations_realize_every_coordinate_permutation(specs) -> None:
    for name in ("H2", "H3", "H4", "H5"):
        g = group(name)
        width = specs[name].gf5_width
        perms = {aut.coord_perm for aut in g.elements}
        assert perms == set(permutations(range(width)))


@pytest.mark.parametrize("name", ["H3", "H4", "H5"])
def test_composed_coordinate_permutations_are_the_induced_ones(specs, name) -> None:
    by_var_images = {aut.var_images: images for aut, images in reference(name).items()}
    for aut in group(name).elements:
        images = by_var_images[aut.var_images]
        assert aut.coord_perm == symmetry._induced_perm(specs[name], images)


# ---------------------------------------------------------------------------
# Group structure


def test_composition_closes_exhaustively_on_small_groups() -> None:
    for name in ("H2", "H3", "H4"):
        elements = group(name).elements
        assert closes(name, [(x, y) for x in elements for y in elements])


def test_composition_closes_on_random_large_group_pairs() -> None:
    g = group("H5")
    rng = random.Random(20260817)
    pairs = [(rng.choice(g.elements), rng.choice(g.elements)) for _ in range(200)]
    assert closes("H5", pairs)


def test_every_small_group_element_has_an_inverse() -> None:
    for name in ("H3", "H4"):
        spec = builtin_specs()[name]
        identity = identity_images(spec)
        ref = reference(name)
        for x in ref.values():
            assert any(compose(spec, x, y) == identity for y in ref.values())


def test_automorphisms_permute_the_fundamental_table() -> None:
    g = group("H3")
    table = g.table
    for images in reference("H3").values():
        mapped = {symmetry._map_element(images, e.element) for e in table.entries}
        assert mapped == set(table.by_element)
