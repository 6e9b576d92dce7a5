"""Tests for partial-field specs, associates, homomorphisms, and the
dual-route fundamental tables."""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import closure, pfield
from pfverify.exact import (
    PRIME_LIMIT,
    SCREEN_PRIME,
    GaussDyadic,
    gauss_eq,
    gauss_from_text,
    next_prime,
    poly_arith,
    poly_pow,
    ratfunc_arith,
    ratfunc_eq,
    ratfunc_from_text,
    screen_point,
)
from pfverify.pfield import (
    FactoredElement,
    associates,
    builtin_specs,
    expand_element,
    factor_over_generators,
    fundamental_table,
    hom_gf5,
    is_fundamental_exact,
    value_eq,
)
from conftest import h3_with_unused_indeterminates


def spec(name: str) -> pfield.PartialFieldSpec:
    return builtin_specs()[name]


def rf(text: str, var_names: tuple[str, ...] = ("a",)):
    return ratfunc_from_text(text, var_names)


# ---------------------------------------------------------------------------
# Spec loading


def test_builtin_specs_have_expected_shapes() -> None:
    shapes = {
        "H2": (0, 4, 4, 2),
        "H3": (1, 4, 5, 3),
        "H4": (2, 7, 10, 4),
        "H5": (3, 10, 16, 6),
    }
    for name, (arity, n_gens, n_seeds, width) in shapes.items():
        s = spec(name)
        assert s.arity == arity
        assert len(s.generators) == n_gens
        assert len(s.seeds) == n_seeds
        assert s.gf5_width == width


def test_first_generator_is_minus_one_everywhere() -> None:
    for s in builtin_specs().values():
        assert s.generator_exprs[0] == "-1"


def test_spec_rejects_missing_minus_one_generator() -> None:
    text = "field X\nk 3\nvars a\ngen a\nseed a\ngf5map a 2 3 4\nprime 7\nmodvar a 3\n"
    with pytest.raises(ValueError):
        pfield.parse_field_spec(text)


@pytest.mark.parametrize("prime", ["1", "4", "1299711", str(PRIME_LIMIT + 1)])
def test_spec_prime_must_be_a_prime_below_the_proven_limit(prime) -> None:
    text = spec("H3").source_text.replace("prime 1299709", f"prime {prime}")
    with pytest.raises(ValueError, match="is not a prime"):
        pfield.parse_field_spec(text)


def test_repriming_replaces_only_the_prime_and_the_text() -> None:
    h4 = spec("H4")
    first, second = (pfield.reprime(h4, 523456789011) for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    changed = [f for f in h4._fields if getattr(first, f) != getattr(h4, f)]
    assert changed == ["mod_prime", "source_text"]
    assert first.mod_prime == next_prime(523456789010)
    assert f"\nprime {first.mod_prime}\n" in first.source_text
    assert not first.source_text.endswith("\n")
    # The spec is the one its text parses to.
    parsed = pfield.parse_field_spec(first.source_text)
    for field in h4._fields:
        a, b = getattr(first, field), getattr(parsed, field)
        if field in ("generators", "seeds"):
            assert all(map(ratfunc_eq, a, b)) and len(a) == len(b)
        else:
            assert a == b, field


def test_repriming_keeps_a_spec_without_a_start_or_a_prime_line() -> None:
    assert pfield.reprime(spec("H4"), None) is spec("H4")
    assert pfield.reprime(spec("H2"), 100000000003) is spec("H2")


def test_each_distinct_h2hom_text_is_parsed_once(monkeypatch) -> None:
    texts = []

    def counting_gauss_from_text(text):
        texts.append(text)
        return parse(text)

    parse = pfield.gauss_from_text
    monkeypatch.setattr(pfield, "gauss_from_text", counting_gauss_from_text)
    h5 = pfield.parse_field_spec(pfield.H5_SPEC_TEXT)
    assert len(texts) == len(set(texts)) == 9
    assert len(h5.h2_hom_images) == 30
    assert h5.h2_hom_images == tuple(
        tuple(parse(text) for text in row) for row in h5.h2_hom_exprs
    )


def test_single_variable_generator_residues() -> None:
    mm = spec("H3").mod_map()
    assert mm.prime == 1299709
    assert mm.gen_residues == (1299708, 5, 1299705, 21)


def test_three_variable_generator_residues() -> None:
    mm = spec("H5").mod_map()
    assert mm.gen_residues == (
        22801763488,
        17,
        47,
        53,
        22801763473,
        22801763443,
        22801763437,
        22801763453,
        22801762743,
        700,
    )


# ---------------------------------------------------------------------------
# Associates


def test_associates_of_rationals_one_and_two() -> None:
    values: set[Fraction] = set()
    for p in (Fraction(1), Fraction(2)):
        values.update(associates(p))
    assert values == {Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)}


def test_associates_of_one_is_zero_and_one() -> None:
    assert set(associates(Fraction(1))) == {Fraction(0), Fraction(1)}
    assert set(associates(Fraction(0))) == {Fraction(0), Fraction(1)}


def test_associates_of_single_variable_has_six_distinct_members() -> None:
    got = associates(rf("a"))
    assert len(got) == 6
    expected = ["a", "1 - a", "1/(1 - a)", "a/(a - 1)", "(a - 1)/a", "1/a"]
    for text, actual in zip(expected, got):
        assert ratfunc_eq(actual, rf(text))


def test_associates_of_gaussian_unit() -> None:
    got = associates(gauss_from_text("i"))
    expected = ["i", "1 - i", "(1 + i)/2", "(1 - i)/2", "1 + i", "-i"]
    assert len(got) == 6
    for text, actual in zip(expected, got):
        assert gauss_eq(actual, gauss_from_text(text))


def test_associates_deduplicates_coincident_expressions() -> None:
    # p = 2 collapses to three distinct associates: 2, -1, 1/2.
    assert len(associates(Fraction(2))) == 3


# The associate maps e_0..e_5 as Mobius maps on rationals.  Two distinct
# Mobius maps agree on at most two points, so three points tell them apart.
MOBIUS = (
    lambda x: x,
    lambda x: 1 - x,
    lambda x: 1 / (1 - x),
    lambda x: x / (x - 1),
    lambda x: (x - 1) / x,
    lambda x: 1 / x,
)
POINTS = (Fraction(3), Fraction(-5, 7), Fraction(11, 2))


def test_s3_table_is_the_composition_of_the_associate_maps() -> None:
    derived = tuple(
        tuple(
            next(
                k
                for k in range(6)
                if all(MOBIUS[i](MOBIUS[j](x)) == MOBIUS[k](x) for x in POINTS)
            )
            for j in range(6)
        )
        for i in range(6)
    )
    assert derived == pfield._S3


def test_associates_lists_the_maps_in_table_order() -> None:
    for x in POINTS:
        assert associates(x) == [m(x) for m in MOBIUS]


def form_classes(p) -> tuple[int, ...]:
    """Each associate's first equal associate, read off all six built forms
    by value_eq: the classes _orbit reads from screen residues."""
    _, one, sub, div, _ = pfield._value_ops(p)
    forms = [op(p, one, sub, div) for op in pfield._ASSOCIATE_OPS]
    return tuple(next(j for j in range(6) if value_eq(f, forms[j])) for f in forms)


def screen_classes(p) -> tuple[tuple[int, ...] | None, int]:
    """_orbit's classes of p and the number of forms it divided to build."""
    zero, one, sub, div, eq = pfield._value_ops(p)
    divisions = 0

    def counting_div(x, y):
        nonlocal divisions
        divisions += 1
        return div(x, y)

    return pfield._orbit(p, zero, one, sub, counting_div, eq)[1], divisions


def test_screen_classes_are_the_form_classes_on_every_builtin_seed() -> None:
    for s in builtin_specs().values():
        for seed in s.seeds:
            classes, divisions = screen_classes(seed)
            if classes is None:  # the seed 1
                continue
            assert classes == form_classes(seed)
            if not s.is_gauss:
                # Six different screens: no form but 1 - seed is built.
                assert classes == tuple(range(6)) and divisions == 0


# Only constants have a stabilizer larger than the identity.  A screen
# denominator that is 0 at the screen point leaves the pair to value_eq.
POLE = screen_point(1)[0]


@pytest.mark.parametrize(
    "text",
    ["2", "-1", "1/2", "3", f"2*(a - {POLE})/(a - {POLE})", f"a*(a-{POLE})/(a-{POLE})"],
    ids=["2", "-1", "1/2", "3", "2-with-pole", "a-with-pole"],
)
def test_screen_classes_are_the_form_classes_on_constants_and_poles(text) -> None:
    classes, _ = screen_classes(rf(text))
    assert classes == form_classes(rf(text))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2).filter(any),
)
def test_screen_classes_are_the_form_classes_on_rational_functions(num, den) -> None:
    p = rf(
        f"({num[0]} + ({num[1]})*a + ({num[2]})*b)/({den[0]} + ({den[1]})*a*b)",
        ("a", "b"),
    )
    classes, _ = screen_classes(p)
    zero, one, _, _, _ = pfield._value_ops(p)
    if classes is None:
        assert value_eq(p, zero) or value_eq(p, one)
    else:
        assert classes == form_classes(p)


def test_associates_closure_is_idempotent_on_a_sample() -> None:
    first = associates(rf("a"))
    for member in first:
        for again in associates(member):
            assert any(ratfunc_eq(again, m) for m in first)


# ---------------------------------------------------------------------------
# Factoring values over the generators


def test_factor_recovers_plain_generator_powers() -> None:
    s = spec("H3")
    fe = factor_over_generators(s, rf("a^2/(a - 1)"))
    assert fe == FactoredElement(-1, (0, 2, -1, 0))
    assert ratfunc_eq(expand_element(s, fe), rf("a^2/(a - 1)"))


def test_factor_handles_squared_denominators() -> None:
    s = spec("H3")
    fe = factor_over_generators(s, rf("-a/((a - 1)^2)"))
    assert fe == FactoredElement(-1, (0, 1, -2, 0))


@pytest.mark.parametrize(
    "text, sign", [("a*(a + 1)/(a + 1)", 1), ("-a*(a + 1)/(a + 1)", -1)]
)
def test_factor_accepts_a_common_factor_that_is_no_generator(text, sign) -> None:
    fe = factor_over_generators(spec("H3"), rf(text))
    assert fe == FactoredElement(sign, (0, 1, 0, 0))


def test_factor_rejects_non_units() -> None:
    with pytest.raises(ValueError):
        factor_over_generators(spec("H3"), rf("a + 1"))


def _grlex_divexact(a, g):
    """The reference: a/g by the same division with leading terms taken in
    graded-lex order (total degree, then the exponents), else None."""
    if not a:
        return {}

    def key(mono):
        return sum(mono), mono

    g_lead = max(g, key=key)
    rem, quot = dict(a), {}
    while rem:
        lead = max(rem, key=key)
        mono = tuple(x - y for x, y in zip(lead, g_lead))
        if min(mono) < 0 or rem[lead] % g[g_lead]:
            return None
        c = quot[mono] = rem[lead] // g[g_lead]
        for e, gc in g.items():
            k = tuple(x + y for x, y in zip(mono, e))
            rem[k] = rem.get(k, 0) - c * gc
            if not rem[k]:
                del rem[k]
    return quot


@st.composite
def _divisions(draw):
    """An arity 1-3, a nonzero quotient q and divisor g, and one term to
    add to their product."""
    arity = draw(st.integers(1, 3))
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * arity),
        st.integers(-4, 4).filter(bool),
        min_size=1,
        max_size=5,
    )
    q, g = draw(terms), draw(terms)
    extra = draw(st.tuples(*[st.integers(0, 6)] * arity)), draw(st.integers(-3, 3))
    return q, g, extra


@settings(max_examples=200, deadline=None)
@given(_divisions())
def test_lex_division_equals_the_grlex_reference(case) -> None:
    # A product divides back to its quotient, and a perturbed product gives
    # the reference's answer: None, or the same quotient where it happens
    # to be a multiple still.
    q, g, (mono, coeff) = case
    product = poly_arith(q, g, "mul")
    assert pfield.poly_divexact(product, g) == q == _grlex_divexact(product, g)
    perturbed = dict(product)
    perturbed[mono] = perturbed.get(mono, 0) + coeff
    perturbed = {m: c for m, c in perturbed.items() if c}
    assert pfield.poly_divexact(perturbed, g) == _grlex_divexact(perturbed, g)


@pytest.mark.parametrize("power, multiple", [(24, False), (8, True)])
def test_lex_division_by_a_max_degree_generator_ends_promptly(power, multiple) -> None:
    # Led by a, lex division with no degree bound substitutes b^8 + c^8 for
    # a throughout the 2,925 terms of (a + b + c + 1)^24: 18 s on a 2-core
    # Xeon.  The bound on the quotient's degree stops that non-multiple at
    # its first step, and a multiple still divides.
    names = ("a", "b", "c")
    g = ratfunc_from_text("a - b^8 - c^8", names).num
    base = poly_pow(ratfunc_from_text("a + b + c + 1", names).num, power)
    value = poly_arith(base, g, "mul") if multiple else base
    start = time.perf_counter()
    quotient = pfield.poly_divexact(value, g)
    assert time.perf_counter() - start < 2.0
    assert quotient == (base if multiple else None)


def test_factor_of_gaussian_units() -> None:
    s = spec("H2")
    fe = factor_over_generators(s, gauss_from_text("(1 - i)/2"))
    assert fe == FactoredElement(1, (0, -1, 0, 1))
    assert gauss_eq(expand_element(s, fe), gauss_from_text("(1 - i)/2"))
    assert factor_over_generators(s, gauss_from_text("-i")) == FactoredElement(
        -1, (0, 0, 1, 0)
    )


# ---------------------------------------------------------------------------
# Homomorphisms to GF(5)^m


def test_gf5_images_of_single_variable_generators() -> None:
    assert spec("H3").gf5_gen_images == ((4, 4, 4), (2, 3, 4), (4, 3, 2), (3, 2, 3))


def test_gf5_images_of_two_variable_generators() -> None:
    assert spec("H4").gf5_gen_images == (
        (4, 4, 4, 4),
        (2, 3, 3, 4),
        (2, 3, 4, 3),
        (4, 3, 3, 2),
        (4, 3, 2, 3),
        (3, 3, 1, 1),
        (1, 3, 3, 3),
    )


def test_gf5_images_of_three_variable_generators() -> None:
    images = spec("H5").gf5_gen_images
    assert images[0] == (4, 4, 4, 4, 4, 4)
    assert images[1] == (4, 3, 3, 4, 2, 2)
    assert images[-1] == (2, 3, 1, 1, 1, 1)


def test_hom_of_one_is_all_ones() -> None:
    s = spec("H4")
    one = FactoredElement(1, (0,) * 7)
    assert hom_gf5(s, one) == (1, 1, 1, 1)


def test_hom_of_zero_is_all_zeros() -> None:
    s = spec("H4")
    assert hom_gf5(s, FactoredElement(0, (0,) * 7)) == (0, 0, 0, 0)


def test_hom_applies_sign_and_inverse_exponents() -> None:
    s = spec("H2")
    half_one_minus_i = FactoredElement(1, (0, -1, 0, 1))
    assert hom_gf5(s, half_one_minus_i) == (2, 4)


def test_hom_is_multiplicative_on_random_unit_pairs() -> None:
    rng = random.Random(99)
    s = spec("H5")
    n = len(s.generators)
    for _ in range(200):
        e1 = FactoredElement(rng.choice((1, -1)), tuple(rng.randint(-2, 2) for _ in range(n)))
        e2 = FactoredElement(rng.choice((1, -1)), tuple(rng.randint(-2, 2) for _ in range(n)))
        product = FactoredElement(
            e1.sign * e2.sign, tuple(x + y for x, y in zip(e1.exps, e2.exps))
        )
        lhs = tuple(
            x * y % 5 for x, y in zip(hom_gf5(s, e1), hom_gf5(s, e2))
        )
        assert lhs == hom_gf5(s, product)


# ---------------------------------------------------------------------------
# Fundamental tables (dual route)


def test_a_replaced_spec_gets_its_own_table() -> None:
    # Tables are cached per spec object, so a spec changed by _replace is
    # not handed the original's table.
    copy = spec("H3")._replace(mod_var_residues=(7,))
    table = fundamental_table(copy)
    assert table.spec is copy
    assert table.mod_map.gen_residues == copy.mod_map().gen_residues
    assert table.mod_map != fundamental_table(spec("H3")).mod_map


def test_gaussian_field_table_has_eleven_known_values() -> None:
    table = fundamental_table(spec("H2"))
    expected = {
        "-1", "0", "-i", "i", "1/2", "(1 - i)/2", "(1 + i)/2", "1", "1 - i",
        "1 + i", "2",
    }
    values = {entry.value for entry in table.entries}
    assert len(table.entries) == 11
    assert values == {gauss_from_text(t) for t in expected}


def test_gaussian_table_is_ordered_by_real_then_imaginary_part() -> None:
    table = fundamental_table(spec("H2"))
    assert table.entries[0].value == gauss_from_text("-1")
    assert table.nonzero_one[0].value == gauss_from_text("-1")
    assert table.nonzero_one[1].value == gauss_from_text("-i")


def test_single_variable_table_fingerprints_match_known_residues() -> None:
    table = fundamental_table(spec("H3"))
    assert [e.fingerprint for e in table.entries] == [
        0, 1, 5, 21, 123783, 259942, 259946, 311931, 324922, 324927, 495128,
        568624, 584869, 618910, 680800, 714841, 731086, 804582, 974783,
        974788, 987779, 1039764, 1039768, 1175927, 1299689, 1299705,
    ]


def test_two_variable_table_has_56_elements() -> None:
    table = fundamental_table(spec("H4"))
    assert len(table.entries) == 56
    assert len(table.nonzero_one) == 54


def test_three_variable_table_has_92_elements() -> None:
    table = fundamental_table(spec("H5"))
    assert len(table.entries) == 92
    assert len(table.nonzero_one) == 90


def test_table_gf5_images_are_pairwise_distinct() -> None:
    for name in ("H2", "H3", "H4", "H5"):
        table = fundamental_table(spec(name))
        images = [e.gf5_image for e in table.entries]
        assert len(set(images)) == len(images)


def test_one_minus_every_table_entry_is_fundamental() -> None:
    s = spec("H3")
    one = rf("1")
    for entry in fundamental_table(s).entries:
        complement = ratfunc_arith(one, entry.value, "sub")
        assert is_fundamental_exact(s, complement)


def test_table_of_a_spec_with_many_indeterminates() -> None:
    # Six indeterminates, more than any builtin field has; the ones besides
    # a occur in no generator, so the table is H3's.
    wide = pfield.parse_field_spec(h3_with_unused_indeterminates(list("pqrst")))
    assert wide.arity == 6
    table = pfield.build_fundamental_table(wide)
    h3 = fundamental_table(spec("H3"))
    assert [e.element for e in table.entries] == [e.element for e in h3.entries]
    assert [e.fingerprint for e in table.entries] == [
        e.fingerprint for e in h3.entries
    ]


def test_unit_seed_with_a_common_factor_gives_the_table() -> None:
    # a*(a + 1)/(a + 1) is the seed a, written with a common factor.
    text = spec("H3").source_text + "seed a*(a + 1)/(a + 1)\n"
    table = pfield.build_fundamental_table(pfield.parse_field_spec(text))
    h3 = fundamental_table(spec("H3"))
    assert len(table.entries) == 26
    assert [e.element for e in table.entries] == [e.element for e in h3.entries]


def test_non_unit_seed_fails_naming_field_seed_and_text() -> None:
    text = spec("H3").source_text.replace("seed a\n", "seed a + 1\n")
    broken = pfield.parse_field_spec(text)
    with pytest.raises(
        pfield.VerificationError,
        match=r"^H3: seed 2 'a \+ 1' is not a unit over the generators$",
    ):
        pfield.build_fundamental_table(broken)


def test_non_unit_closure_element_fails_naming_the_element() -> None:
    # a^2 is a unit, but its associate 1 - a^2 = (1 - a)(1 + a) is not.
    broken = pfield.parse_field_spec(spec("H3").source_text + "seed a^2\n")
    with pytest.raises(
        pfield.VerificationError,
        match=r"^H3: closure element '.*' is not a unit over the generators$",
    ):
        pfield.build_fundamental_table(broken)


@pytest.mark.parametrize(
    "seed, text", [("a^2", "-a^2 + 1"), ("-1", "2")], ids=["a-squared", "minus-one"]
)
def test_a_non_unit_associate_is_named_by_its_one_minus_seed(seed, text) -> None:
    broken = pfield.parse_field_spec(spec("H3").source_text + f"seed {seed}\n")
    with pytest.raises(
        pfield.VerificationError,
        match=rf"^H3: closure element '{re.escape(text)}' is not a unit ",
    ):
        pfield.build_fundamental_table(broken)


@pytest.mark.parametrize("name, count", [("H3", 26), ("H4", 56), ("H5", 92)])
def test_closure_and_membership_read_no_modular_map(monkeypatch, name, count) -> None:
    # The associate closure and the exact membership test must not read the
    # fingerprint prime, which belongs to the other route, the sieve.
    table = fundamental_table(spec(name))
    blind = spec(name)._replace(mod_prime=None, mod_var_residues=())

    def no_mod_map(self, prime=None):
        raise AssertionError("the modular map was read")

    monkeypatch.setattr(pfield.PartialFieldSpec, "mod_map", no_mod_map)
    values, _, _ = closure._closure_of_seeds(blind)
    assert len(values) == count
    for v in values:
        assert sum(ratfunc_eq(v, e.value) for e in table.entries) == 1
        assert is_fundamental_exact(blind, v)
    # Route one's factored forms, the derived ones included, are the table's.
    elements = closure._closure_elements(blind)
    assert {fe for fe, _ in elements} == table.by_element.keys()
    for fe, v in elements:
        assert ratfunc_eq(v, table.by_element[fe].value)


def test_closure_keeps_the_table_when_a_screen_denominator_vanishes() -> None:
    # a*(a - s)/(a - s) is the seed a, with a denominator that is 0 at the
    # screen point; it and its associates have no bucket key.
    s = screen_point(1)[0]
    text = spec("H3").source_text + f"seed a*(a - {s})/(a - {s})\n"
    values, _, _ = closure._closure_of_seeds(pfield.parse_field_spec(text))
    table = fundamental_table(spec("H3"))
    assert len(values) == 26
    assert all(any(ratfunc_eq(v, e.value) for e in table.entries) for v in values)


def reference_closure(s: pfield.PartialFieldSpec) -> list:
    """The associate closure as a plain loop over built forms: a popped value
    that value_eq finds equal to no kept value sharing its screen key is
    kept and pushes all of associates(value)."""

    def key(v):
        if isinstance(v, GaussDyadic):
            return v
        num, den = v.screen_residues
        return num * pow(den, -1, SCREEN_PRIME) % SCREEN_PRIME if den else None

    values: list = []
    buckets: dict = {}
    queue = list(s.seeds)
    while queue:
        v = queue.pop()
        k = key(v)
        if k is None:
            probe = range(len(values))
        else:
            probe = buckets.get(k, []) + buckets.get(None, [])
        if any(value_eq(values[i], v) for i in probe):
            continue
        buckets.setdefault(k, []).append(len(values))
        values.append(v)
        queue.extend(associates(v))
    return values


def with_seeds(name: str, seeds: list[str]) -> pfield.PartialFieldSpec:
    """A builtin spec with its seed lines replaced by seeds, in order."""
    lines = spec(name).source_text.splitlines()
    kept = [line for line in lines if not line.startswith("seed ")]
    text = "\n".join(kept + [f"seed {x}" for x in seeds]) + "\n"
    return pfield.parse_field_spec(text)


def assert_closure_matches_reference(s: pfield.PartialFieldSpec) -> None:
    got, _, _ = closure._closure_of_seeds(s)
    want = reference_closure(s)
    if s.is_gauss:
        assert got == want
    else:
        assert [(v.num, v.den) for v in got] == [(v.num, v.den) for v in want]


H3_SEEDS = list(spec("H3").seed_exprs)
SCREEN_A = screen_point(1)[0]


CLOSURE_SPECS = pytest.mark.parametrize(
    "s",
    [spec(name) for name in ("H2", "H3", "H4", "H5")]
    + [
        with_seeds("H3", seeds)
        for seeds in (
            H3_SEEDS + ["-1"],  # the orbit {-1, 2, 1/2} has a stabilizer
            H3_SEEDS + ["0"],
            H3_SEEDS + ["a"],
            H3_SEEDS + ["1 - a"],  # an associate of another seed
            H3_SEEDS[::-1],
            # a with a denominator that is 0 at the screen point: no key
            H3_SEEDS + [f"a*(a - {SCREEN_A})/(a - {SCREEN_A})"],
        )
    ],
    ids=["H2", "H3", "H4", "H5"]
    + ["minus-one", "zero", "repeat", "associate", "reversed", "no-key"],
)
H4_SEED_SUBSETS = given(
    st.lists(
        st.sampled_from(spec("H4").seed_exprs), min_size=1, max_size=10, unique=True
    )
)


@CLOSURE_SPECS
def test_closure_equals_the_reference_form_for_form(s) -> None:
    assert_closure_matches_reference(s)


@settings(max_examples=25, deadline=None)
@H4_SEED_SUBSETS
def test_closure_equals_the_reference_on_h4_seed_subsets(seeds) -> None:
    assert_closure_matches_reference(with_seeds("H4", seeds))


def assert_derived_forms_are_factored_forms(s: pfield.PartialFieldSpec) -> None:
    """Route one's forms, derived from the seeds and each root's 1 - x,
    equal factor_over_generators of every closure value; when some value is
    no unit, route one fails instead."""
    values, _, _ = closure._closure_of_seeds(s)
    try:
        want = [factor_over_generators(s, v) for v in values]
    except ValueError:
        with pytest.raises(pfield.VerificationError, match="is not a unit"):
            closure._closure_elements(s)
        return
    assert [fe for fe, _ in closure._closure_elements(s)] == want


@CLOSURE_SPECS
def test_derived_forms_equal_the_factored_forms(s) -> None:
    assert_derived_forms_are_factored_forms(s)


@settings(max_examples=15, deadline=None)
@H4_SEED_SUBSETS
def test_derived_forms_equal_the_factored_forms_on_h4_seed_subsets(seeds) -> None:
    assert_derived_forms_are_factored_forms(with_seeds("H4", seeds))


@pytest.mark.parametrize("name, calls", [("H3", 9), ("H4", 19), ("H5", 31)])
def test_a_table_build_factors_only_seeds_and_their_complements(
    monkeypatch, name, calls
) -> None:
    counted = []

    def counting_factor(s, x):
        counted.append(x)
        return factor_over_generators(s, x)

    monkeypatch.setattr(closure, "factor_over_generators", counting_factor)
    table = pfield.build_fundamental_table(spec(name))
    assert len(counted) == calls
    assert [e.element for e in table.entries] == [
        e.element for e in fundamental_table(spec(name)).entries
    ]


def test_h5_closure_cross_multiplies_at_most_once_per_seed(monkeypatch) -> None:
    # Equal values of one orbit are told apart by the seed's stabilizer, so
    # ratfunc_eq reaches the exact cross-multiplication only across orbits.
    s = spec("H5")
    exact = 0

    def counting_eq(a, b):
        nonlocal exact
        (a_num, a_den), (b_num, b_den) = a.screen_residues, b.screen_residues
        if a is not b and not (a_num * b_den - b_num * a_den) % SCREEN_PRIME:
            exact += 1
        return ratfunc_eq(a, b)

    monkeypatch.setattr(pfield, "ratfunc_eq", counting_eq)
    closure._closure_of_seeds(s)
    assert exact <= len(s.seeds)


# ---------------------------------------------------------------------------
# Exact membership testing


@pytest.mark.parametrize(
    "x",
    [
        ratfunc_arith(rf("-(-1)"), rf("1 - a"), "div"),
        # a over a common factor that is no generator.
        rf("(a^2 + 1299704*a)/(a + 1299704)"),
    ],
    ids=["quotient", "common-factor"],
)
def test_membership_accepts_unnormalized_forms(x) -> None:
    assert is_fundamental_exact(spec("H3"), x)


def test_membership_rejects_non_fundamentals() -> None:
    assert not is_fundamental_exact(spec("H3"), rf("a + 1"))


_NON_UNITS = {"H2": "3", "H3": "a + 2", "H4": "a + b", "H5": "a + b + c"}


@pytest.mark.parametrize("name", ["H2", "H3", "H4", "H5"])
def test_membership_is_decided_by_definition(monkeypatch, name) -> None:
    # x is fundamental exactly when x and 1 - x factor over the generators;
    # deciding it reads neither the table nor the modular map.
    s = spec(name)
    table = fundamental_table(s)

    def unread(*args, **kwargs):
        raise AssertionError("membership read the table or the modular map")

    monkeypatch.setattr(pfield, "fundamental_table", unread)
    monkeypatch.setattr(pfield.PartialFieldSpec, "mod_map", unread)
    for entry in table.entries:
        assert is_fundamental_exact(s, entry.value)
    rng = random.Random(24)
    outside = 0
    for _ in range(40):
        p, q = (rng.choice(table.nonzero_one).element for _ in range(2))
        product = pfield.canonical_element(
            s,
            FactoredElement(
                p.sign * q.sign, tuple(x + y for x, y in zip(p.exps, q.exps))
            ),
        )
        if product not in table.by_element:
            outside += 1
            assert not is_fundamental_exact(s, expand_element(s, product))
    assert outside >= 20
    text = _NON_UNITS[name]
    non_unit = gauss_from_text(text) if s.is_gauss else rf(text, s.var_names)
    assert not is_fundamental_exact(s, non_unit)


def test_membership_accepts_zero() -> None:
    assert is_fundamental_exact(spec("H3"), rf("0"))


def test_membership_handles_denominators_that_vanish_at_the_screen_point() -> None:
    s = screen_point(1)[0]
    assert is_fundamental_exact(spec("H3"), rf(f"a*(a - {s})/(a - {s})"))
    assert not is_fundamental_exact(spec("H3"), rf(f"(a + 1)*(a - {s})/(a - {s})"))
