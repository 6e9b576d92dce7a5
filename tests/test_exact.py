"""Tests for the exact arithmetic kernels."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import exact
from pfverify.exact import (
    ModMap,
    gauss_div,
    gauss_eq,
    GAUSS_I,
    gauss_from_text,
    gauss_is_unit,
    gauss_log2_norm,
    gauss_make,
    gauss_mul,
    is_prime,
    mod_eval,
    next_prime,
    poly_arith,
    poly_eval_mod,
    poly_subst,
    ratfunc_arith,
    ratfunc_eq,
    ratfunc_eval_gauss,
    ratfunc_eval_mod,
    ratfunc_from_text,
)


def rf(text: str, var_names: tuple[str, ...] = ("a",)) -> exact.RatFunc:
    return ratfunc_from_text(text, var_names)


# ---------------------------------------------------------------------------
# Polynomial arithmetic


def test_poly_representation_is_sparse_exponent_dict() -> None:
    p = rf("a^2 - a + 1").num
    assert p == {(2,): 1, (1,): -1, (0,): 1}


def test_sub_of_poly_from_itself_is_zero() -> None:
    a = rf("a").num
    assert poly_arith(a, a, "sub") == {}


def test_difference_of_squares() -> None:
    one_minus = rf("1 - a").num
    one_plus = rf("1 + a").num
    assert poly_arith(one_minus, one_plus, "mul") == rf("1 - a^2").num


def test_product_of_quadratic_and_linear_gives_cubic() -> None:
    quad = rf("a^2 - a + 1").num
    lin = rf("a + 1").num
    assert poly_arith(quad, lin, "mul") == rf("a^3 + 1").num


def test_poly_arith_rejects_arity_mismatch() -> None:
    one_var = rf("a").num
    two_var = rf("a + b", ("a", "b")).num
    with pytest.raises(ValueError):
        poly_arith(one_var, two_var, "add")


def test_poly_arith_never_stores_zero_coefficients() -> None:
    a = rf("a^2 + a").num
    b = rf("a^2 - a").num
    assert poly_arith(a, b, "sub") == {(1,): 2}


def _reference_product(a, b):
    """a*b by the double loop over both operands' terms."""
    out = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(x + y for x, y in zip(mono_a, mono_b))
            out[mono] = out.get(mono, 0) + coeff_a * coeff_b
    return {mono: coeff for mono, coeff in out.items() if coeff}


@st.composite
def _sparse_polys(draw):
    """(arity, poly) with up to six terms of degree at most 3 per variable."""
    arity = draw(st.integers(0, 3))
    monos = st.tuples(*[st.integers(0, 3)] * arity)
    coeffs = st.integers(-5, 5).filter(bool)
    return arity, draw(st.dictionaries(monos, coeffs, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_sparse_polys(), st.sampled_from([1, -1, 3]), st.booleans())
def test_product_with_a_constant_equals_the_general_loop(poly, value, left) -> None:
    arity, other = poly
    const = {(0,) * arity: value}
    a, b = (const, other) if left else (other, const)
    got = poly_arith(a, b, "mul")
    want = _reference_product(a, b)
    assert got == want
    assert list(got.items()) == list(want.items())
    assert got is not other


# ---------------------------------------------------------------------------
# Rational function equality by cross-multiplication


def test_negated_reciprocal_forms_are_equal() -> None:
    assert ratfunc_eq(rf("-1/(a - 1)"), rf("1/(1 - a)"))


def test_distinct_linear_polys_are_not_equal() -> None:
    assert not ratfunc_eq(rf("a"), rf("1 - a"))


def test_factored_denominator_matches_expanded_form() -> None:
    expanded = rf("-a/(a^3 + 1)")
    factored = ratfunc_arith(
        rf("-a"),
        ratfunc_arith(rf("a + 1"), rf("a^2 - a + 1"), "mul"),
        "div",
    )
    assert ratfunc_eq(expanded, factored)


def test_ratfunc_equality_ignores_common_factors() -> None:
    doubled = rf("(2*a - 2)/(2*a^2 - 2)")
    assert ratfunc_eq(doubled, rf("1/(a + 1)"))


def _random_poly(rng: random.Random, arity: int) -> exact.Poly:
    terms: exact.Poly = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, 2) for _ in range(arity))
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[exp] = terms.get(exp, 0) + coeff
    return exact.canonicalize(terms)


def _random_ratfunc(rng: random.Random, arity: int) -> exact.RatFunc:
    num = _random_poly(rng, arity)
    den: exact.Poly = {}
    while not den:
        den = _random_poly(rng, arity)
    return exact.RatFunc(num, den)


def test_ratfunc_eq_is_an_equivalence_relation_on_random_triples() -> None:
    rng = random.Random(20260817)
    for _ in range(1000):
        arity = rng.randint(1, 3)
        base = _random_ratfunc(rng, arity)
        scale1: exact.Poly = {}
        while not scale1:
            scale1 = _random_poly(rng, arity)
        scale2: exact.Poly = {}
        while not scale2:
            scale2 = _random_poly(rng, arity)
        b = exact.RatFunc(
            poly_arith(base.num, scale1, "mul"), poly_arith(base.den, scale1, "mul")
        )
        c = exact.RatFunc(
            poly_arith(base.num, scale2, "mul"), poly_arith(base.den, scale2, "mul")
        )
        other = _random_ratfunc(rng, arity)
        assert ratfunc_eq(base, base)
        assert ratfunc_eq(base, b) and ratfunc_eq(b, base)
        assert ratfunc_eq(b, c) and ratfunc_eq(base, c)
        if ratfunc_eq(base, other) and ratfunc_eq(other, b):
            assert ratfunc_eq(base, b)


@st.composite
def _ratfunc_pairs(draw):
    """Two rational functions of one arity: unrelated, or the first written
    again with a common factor or both signs flipped."""
    arity = draw(st.integers(1, 3))
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * arity), st.integers(-3, 3), max_size=4
    ).map(exact.canonicalize)
    nonzero = polys.filter(bool)
    a = exact.RatFunc(draw(polys), draw(nonzero))
    how = draw(st.sampled_from(["unrelated", "common factor", "signs flipped"]))
    if how == "unrelated":
        b = exact.RatFunc(draw(polys), draw(nonzero))
    elif how == "common factor":
        f = draw(nonzero)
        b = exact.RatFunc(poly_arith(a.num, f, "mul"), poly_arith(a.den, f, "mul"))
    else:
        b = exact.RatFunc(exact.poly_neg(a.num), exact.poly_neg(a.den))
    return a, b


@settings(max_examples=400, deadline=None)
@given(_ratfunc_pairs())
def test_ratfunc_eq_agrees_with_cross_multiplication(pair) -> None:
    a, b = pair
    expected = poly_arith(a.num, b.den, "mul") == poly_arith(b.num, a.den, "mul")
    assert ratfunc_eq(a, b) == expected
    assert ratfunc_eq(b, a) == expected


def test_ratfunc_eq_confirms_a_difference_that_vanishes_at_the_screen_point() -> None:
    # a - r + 5 and 5 differ, but agree at the screen point, where a = r.
    r = exact.screen_point(2)[0]
    x = exact.RatFunc({(1, 0): 1, (0, 0): 5 - r}, {(0, 0): 1})
    five = exact.ratfunc_const(2, 5)
    assert x.screen_residues == five.screen_residues
    assert not ratfunc_eq(x, five)
    assert ratfunc_eq(x, exact.RatFunc(x.num, x.den))


def test_ratfunc_eq_screens_any_number_of_variables() -> None:
    names = tuple(f"x{j}" for j in range(40))
    total = rf(" + ".join(names), names)
    assert len(exact.screen_point(40)) == 40
    assert ratfunc_eq(total, rf(" + ".join(reversed(names)), names))
    assert not ratfunc_eq(total, rf(" + ".join(names[:-1]), names))


def test_poly_subst_composes_values_into_polynomial() -> None:
    # a^2 - a + 1 evaluated at a = 1/(1-a) gives (a^2 - a + 1)/(1-a)^2.
    quad = rf("a^2 - a + 1").num
    value = rf("1/(1 - a)")
    result = poly_subst(quad, [value])
    assert ratfunc_eq(result, rf("(a^2 - a + 1)/((1 - a)^2)"))


# ---------------------------------------------------------------------------
# Gaussian dyadic numbers


def test_gauss_canonical_form_reduces_shared_powers_of_two() -> None:
    assert gauss_make(2, 2, 1) == gauss_make(1, 1, 0)


def test_gauss_product_of_conjugates_is_norm() -> None:
    x = gauss_from_text("1 - i")
    y = gauss_from_text("1 + i")
    assert gauss_eq(gauss_mul(x, y), gauss_make(2, 0, 0))


def test_gauss_half_one_minus_i_squares_to_minus_i_over_two() -> None:
    x = gauss_from_text("(1 - i)/2")
    assert gauss_eq(gauss_mul(x, x), gauss_from_text("-i/2"))


def test_gauss_division_is_exact_for_unit_quotients() -> None:
    num = gauss_from_text("-1")
    den = gauss_from_text("-i")
    assert gauss_eq(gauss_div(num, den), gauss_from_text("-i"))


def test_gauss_division_rejects_values_outside_the_ring() -> None:
    with pytest.raises(ValueError):
        gauss_div(gauss_make(1, 0, 0), gauss_make(3, 0, 0))


def test_gauss_unit_recognition() -> None:
    assert gauss_is_unit(gauss_from_text("2"))
    assert gauss_is_unit(gauss_from_text("(1 + i)/2"))
    assert not gauss_is_unit(gauss_make(3, 0, 0))
    assert not gauss_is_unit(gauss_make(0, 0, 0))


def test_gauss_lognorm_values() -> None:
    # log2 of the norm re^2 + im^2, an integer for every unit.
    assert gauss_log2_norm(gauss_from_text("2")) == 2
    assert gauss_log2_norm(gauss_from_text("(1 - i)/2")) == -1
    assert gauss_log2_norm(gauss_from_text("1 + i")) == 1
    assert gauss_log2_norm(gauss_from_text("-1")) == 0


def test_gauss_lognorm_rejects_non_units() -> None:
    with pytest.raises(ValueError):
        gauss_log2_norm(gauss_make(3, 0, 0))


def test_gauss_lognorm_is_additive_on_random_unit_products() -> None:
    rng = random.Random(11)
    units = [
        gauss_from_text(t)
        for t in ("2", "1/2", "i", "-i", "1 - i", "1 + i", "(1 - i)/2", "-1", "-2", "2*i")
    ]
    for _ in range(300):
        x = rng.choice(units)
        y = rng.choice(units)
        product = gauss_log2_norm(gauss_mul(x, y))
        assert product == gauss_log2_norm(x) + gauss_log2_norm(y)


# ---------------------------------------------------------------------------
# Modular evaluation


H3_GENS = ("-1", "a", "1 - a", "a^2 - a + 1")
H4_GENS = ("-1", "a", "b", "1 - a", "1 - b", "a*b - 1", "a + b - 2*a*b")


def _residues(gen_texts: tuple[str, ...], var_res: dict[str, int], p: int) -> tuple[int, ...]:
    names = tuple(var_res)
    point = tuple(var_res.values())
    return tuple(ratfunc_eval_mod(rf(t, names), point, p) for t in gen_texts)


def test_generator_residues_single_variable_map() -> None:
    p = 1299709
    assert _residues(H3_GENS, {"a": 5}, p) == (1299708, 5, 1299705, 21)


def test_generator_residues_two_variable_map() -> None:
    p = 179424673
    assert _residues(H4_GENS, {"a": 11, "b": 19}, p) == (
        179424672,
        11,
        19,
        179424663,
        179424655,
        208,
        179424285,
    )


def test_poly_eval_mod_matches_direct_substitution() -> None:
    quad = rf("a^2 - a + 1").num
    assert poly_eval_mod(quad, (5,), 1299709) == 21


def test_mod_eval_of_empty_exponent_vector_is_one() -> None:
    m = ModMap(1299709, (1299708, 5, 1299705, 21))
    assert mod_eval(m, 1, (0, 0, 0, 0)) == 1


def test_mod_eval_applies_sign_and_inverse_exponents() -> None:
    m = ModMap(1299709, (1299708, 5, 1299705, 21))
    v = mod_eval(m, -1, (0, -1, 0, 1))
    assert v == (-pow(5, 1299707, 1299709) * 21) % 1299709


def test_mod_eval_is_a_homomorphism_of_the_exponent_lattice() -> None:
    rng = random.Random(7)
    m = ModMap(1299709, (1299708, 5, 1299705, 21))
    for _ in range(200):
        e1 = tuple(rng.randint(-3, 3) for _ in range(4))
        e2 = tuple(rng.randint(-3, 3) for _ in range(4))
        combined = tuple(x + y for x, y in zip(e1, e2))
        assert (
            mod_eval(m, 1, e1) * mod_eval(m, 1, e2) % m.prime == mod_eval(m, 1, combined)
        )


def test_mod_eval_rejects_zero_generator_residue() -> None:
    with pytest.raises(ValueError):
        ModMap(7, (0, 3))


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37() -> None:
    # This product passes Miller-Rabin for every prime base up to 37; base
    # 41 exposes it, which keeps is_prime exact below PRIME_LIMIT.
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)


def test_next_prime_advances_deterministically() -> None:
    assert next_prime(1299709) == 1299721
    assert next_prime(2) == 3
    assert next_prime(179424673) == 179424691


# ---------------------------------------------------------------------------
# Expression parsing


def test_parser_handles_precedence_and_unary_minus() -> None:
    loose = rf("1 - a/(1 - a + a^2)")
    explicit = ratfunc_arith(rf("1"), rf("a/(1 - a + a^2)"), "sub")
    assert ratfunc_eq(loose, explicit)


def test_parser_supports_powers_of_parenthesized_groups() -> None:
    assert ratfunc_eq(rf("(a - 1)^2"), rf("a^2 - 2*a + 1"))


def test_parser_rejects_unknown_variables() -> None:
    with pytest.raises(ValueError):
        ratfunc_from_text("a + x", ("a",))


def test_parser_rejects_imaginary_unit_in_polynomial_context() -> None:
    with pytest.raises(ValueError):
        ratfunc_from_text("1 - i", ("a",))


def test_gauss_parser_accepts_imaginary_unit_only() -> None:
    assert gauss_eq(gauss_from_text("i*(1 - i)"), gauss_from_text("1 + i"))
    with pytest.raises(ValueError):
        gauss_from_text("a + 1")


def test_ratfunc_eval_mod_handles_division() -> None:
    assert ratfunc_eval_mod(rf("(a - 1)/(a + 1)"), (3,), 7) == (2 * pow(4, 5, 7)) % 7


def test_ratfunc_eval_mod_is_none_at_a_vanishing_denominator() -> None:
    assert ratfunc_eval_mod(rf("1/(a - 3)"), (3,), 7) is None
    # The numerator vanishing too decides nothing either.
    assert ratfunc_eval_mod(rf("(a - 3)/(a - 3)"), (10,), 7) is None
    assert ratfunc_eval_mod(rf("(a - 3)/(a - 4)"), (3,), 7) == 0


def test_ratfunc_eval_mod_matches_fraction_arithmetic() -> None:
    rng = random.Random(5)
    x = rf("(a^2*b - 3)/(2*a - b^2 + 1)", ("a", "b"))
    p = 1000003
    for _ in range(100):
        a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
        num, den = a * a * b - 3, 2 * a - b * b + 1
        expected = num * pow(den, -1, p) % p if den else None
        assert ratfunc_eval_mod(x, (a, b), p) == expected


def test_ratfunc_eval_gauss_divides_once_at_the_point() -> None:
    x = rf("(a - b)/(a*b)", ("a", "b"))
    point = (gauss_from_text("1 - i"), gauss_from_text("2"))
    # (1 - i - 2)/(2*(1 - i)) = (-1 - i)(1 + i)/4 = -i/2
    assert gauss_eq(ratfunc_eval_gauss(x, point), gauss_make(0, -1, 1))
    assert gauss_eq(ratfunc_eval_gauss(rf("a^3"), (GAUSS_I,)), gauss_from_text("-i"))


def test_ratfunc_eval_gauss_rejects_zero_denominators_and_non_ring_values() -> None:
    with pytest.raises(ValueError):
        ratfunc_eval_gauss(rf("1/(a - 2)"), (gauss_from_text("2"),))
    with pytest.raises(ValueError):
        ratfunc_eval_gauss(rf("1/a"), (gauss_from_text("3"),))


def test_parser_rejects_nesting_beyond_the_cap() -> None:
    depth = exact.MAX_NESTING
    assert ratfunc_eq(rf("(" * depth + "a" + ")" * depth), rf("a"))
    assert ratfunc_eq(rf("-" * depth + "a"), rf("a"))
    for text in ("(" * (depth + 1) + "a" + ")" * (depth + 1), "-" * (depth + 1) + "a"):
        with pytest.raises(ValueError, match="nests deeper"):
            ratfunc_from_text(text, ("a",))


def test_parser_accepts_long_operator_chains() -> None:
    assert ratfunc_eq(rf(" + ".join(["a"] * 3000)), rf("3000*a"))


def test_parser_rejects_degree_beyond_the_cap() -> None:
    cap = exact.MAX_DEGREE
    assert ratfunc_eq(rf(f"a^{cap}/(1 - a)^{cap}"), rf(f"(a/(1 - a))^{cap}"))
    for text in (
        f"a^{cap + 1}",
        "((1 - a)^40)^40",
        "((1 - a)^40)^0",
        f"1/a^{cap} + 1/a",
        f"2^{cap + 1}",
        "(2^16)^16",
        "*".join(["a"] * (cap + 1)),
    ):
        with pytest.raises(ValueError, match="degree exceeds"):
            ratfunc_from_text(text, ("a",))


@pytest.mark.parametrize("text", ["((1 - a)^40)^0", "a^8*a"])
def test_parser_carries_out_no_operation_over_the_degree_cap(monkeypatch, text) -> None:
    # Each operation's degree bound is checked before the operation runs, so
    # nothing over the cap is ever expanded, even inside a text that fails.
    degrees = []
    poly_pow, ratfunc_arith = exact.poly_pow, exact.ratfunc_arith

    def recording_pow(a, n):
        degrees.append(n)
        return poly_pow(a, n)

    def recording_arith(a, b, kind):
        out = ratfunc_arith(a, b, kind)
        degrees.extend(sum(mono) for mono in (*out.num, *out.den))
        return out

    monkeypatch.setattr(exact, "poly_pow", recording_pow)
    monkeypatch.setattr(exact, "ratfunc_arith", recording_arith)
    with pytest.raises(ValueError, match="degree exceeds"):
        ratfunc_from_text(text, ("a",))
    assert degrees and max(degrees) <= exact.MAX_DEGREE


NAMES = tuple(f"v{i}" for i in range(33))
SUM16 = "(" + " + ".join(NAMES[:16]) + ")"
SUM33 = "(" + " + ".join(NAMES) + ")"


@pytest.mark.parametrize(
    "text",
    [
        # The expansion has 490,314 terms; parsing it once took about 10 s.
        f"{SUM16}^8",
        f"{SUM33}*{SUM33}",
        f"1/{SUM33}/{SUM33}",
        f"1/{SUM33} + 1/{SUM33}",
    ],
    ids=["power", "product", "quotient", "sum"],
)
def test_parser_rejects_terms_beyond_the_cap(monkeypatch, text) -> None:
    # Each product's term bound is checked before the product is formed, so
    # no polynomial product over the cap is ever expanded.
    bounds = []
    poly_arith = exact.poly_arith

    def recording_arith(a, b, kind):
        if kind == "mul":
            bounds.append(len(a) * len(b))
        return poly_arith(a, b, kind)

    monkeypatch.setattr(exact, "poly_arith", recording_arith)
    with pytest.raises(ValueError, match=f"term bound exceeds {exact.MAX_TERMS}"):
        ratfunc_from_text(text, NAMES)
    assert max(bounds, default=0) <= exact.MAX_TERMS


def test_parser_accepts_a_dense_power_under_the_term_cap() -> None:
    value = rf("(a + b + c + 1)^8", ("a", "b", "c"))
    assert len(value.num) == 165
    assert sum(value.num.values()) == 4**8
    assert value.den == {(0, 0, 0): 1}
