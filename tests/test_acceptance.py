"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
verdict lines.  Every expected number is frozen here; a failure means the
library no longer reproduces the published computation.
"""

from __future__ import annotations

import random
import time
from itertools import permutations, product

import pytest

from pfverify import exact, genesis, lift, sieve, symmetry
from pfverify.exact import (
    gauss_eq,
    gauss_from_text,
    poly_arith,
    ratfunc_eq,
    ratfunc_from_text,
    ratfunc_is_zero,
)
from pfverify.pfield import (
    FactoredElement,
    VerificationError,
    associates,
    build_fundamental_table,
    builtin_specs,
    factor_over_generators,
    fundamental_table,
    hom_gf5,
    parse_field_spec,
)
from pfverify.symmetry import find_automorphisms
from test_symmetry import closes

FIELDS = ("H2", "H3", "H4", "H5")

FUNDAMENTAL_COUNTS = {"H2": 11, "H3": 26, "H4": 56, "H5": 92}
TABLE_BUDGETS = {"H2": 1.0, "H3": 1.0, "H4": 10.0, "H5": 60.0}
CANDIDATE_COUNTS = {"H3": 351, "H4": 13230, "H5": 65610}
DISTINCT_COUNTS = {"H3": 351, "H4": 13231, "H5": 65611}
PRIMES = {"H3": 1299709, "H4": 179424673, "H5": 22801763489}
GROUP_ORDERS = {"H2": 2, "H3": 6, "H4": 24, "H5": 720}
PAIR_COUNTS = {"H2": 30, "H3": 120, "H4": 360, "H5": 720}

H4_RANGES = ((0, 0), (-1, 1), (-1, 1), (-3, 3), (-3, 3), (-1, 1), (-2, 2))
H5_RANGES = ((0, 0),) + ((-1, 1),) * 6 + ((-2, 2),) + ((-1, 1),) * 2

H3_SURVIVOR_RESIDUES = [
    0, 1, 5, 21, 123783, 259942, 259946, 311931, 324922, 324927, 495128,
    568624, 584869, 618910, 680800, 714841, 731086, 804582, 974783,
    974788, 987779, 1039764, 1039768, 1175927, 1299689, 1299705,
]


@pytest.fixture(scope="module")
def specs():
    return builtin_specs()


def _pass(num: int, label: str) -> None:
    print(f"acceptance {num:02d} {label}: PASS")


def test_criterion_01_fundamental_counts_by_both_routes(specs) -> None:
    for name in FIELDS:
        spec = specs[name]
        started = time.perf_counter()
        table = build_fundamental_table(spec)
        elapsed = time.perf_counter() - started
        assert len(table.entries) == FUNDAMENTAL_COUNTS[name]
        assert elapsed < TABLE_BUDGETS[name], f"{name} build took {elapsed:.1f}s"
        box = sieve.candidate_box(spec)
        result = sieve.fingerprint_sieve(spec, box)
        assert len(result.fingerprints) == FUNDAMENTAL_COUNTS[name]
        assert set(result.fingerprints) == {e.fingerprint for e in table.entries}
    _pass(1, "fundamental counts 11/26/56/92 by both routes")


def test_criterion_02_candidate_space_sizes(specs) -> None:
    for name, expected in CANDIDATE_COUNTS.items():
        box = sieve.candidate_box(specs[name])
        assert len(sieve.enumerate_candidates(box)) == expected
    _pass(2, "candidate space sizes 351/13230/65610")


def test_criterion_03_exponent_bounds(specs) -> None:
    assert sieve.candidate_box(specs["H4"]).ranges == H4_RANGES
    assert sieve.candidate_box(specs["H5"]).ranges == H5_RANGES
    _pass(3, "exponent bounds from exact linear programming")


def test_criterion_04_fingerprint_injectivity(specs) -> None:
    for name in ("H3", "H4", "H5"):
        spec = specs[name]
        result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
        assert result.mod_map.prime == PRIMES[name]
        assert result.distinct_count == DISTINCT_COUNTS[name]
        if name == "H3":
            assert list(result.fingerprints) == H3_SURVIVOR_RESIDUES
    _pass(4, "fingerprint injectivity at the shipped primes")


def test_criterion_05_symmetry_groups(specs) -> None:
    symmetry.find_automorphisms.cache_clear()
    for name in FIELDS:
        spec = specs[name]
        started = time.perf_counter()
        group = find_automorphisms(spec)
        elapsed = time.perf_counter() - started
        assert len(group.elements) == GROUP_ORDERS[name]
        perms = {aut.coord_perm for aut in group.elements}
        assert perms == set(permutations(range(spec.gf5_width)))
        if name == "H5":
            assert elapsed < 600.0, f"H5 search took {elapsed:.1f}s"

    # Closure, on each element's exact generator images: the tests compose
    # them from the confirmed generators' images by exponent arithmetic.
    for name in ("H3", "H4"):
        elements = find_automorphisms(specs[name]).elements
        assert closes(name, [(x, y) for x in elements for y in elements])

    elements = find_automorphisms(specs["H5"]).elements
    n = len(elements)
    rng = random.Random(20260817)
    pairs = [
        (elements[rng.randrange(n)], elements[rng.randrange(n)]) for _ in range(200)
    ]
    assert closes("H5", pairs)
    _pass(5, "symmetry group orders 2/6/24/720 with closure")


def test_criterion_06_representation_pair_counts(specs) -> None:
    for name in FIELDS:
        spec = specs[name]
        pairs = lift.enumerate_u25(spec)
        tuples = lift.gf5_u25_tuples(spec.report_index)
        assert len(pairs) == PAIR_COUNTS[name]
        assert len(tuples) == PAIR_COUNTS[name]
        fn = lift.build_lifting_fn(spec)
        lifted = {
            (fn.entry_for(p).element, fn.entry_for(q).element) for p, q in tuples
        }
        direct = {(p.element, q.element) for p, q in pairs}
        assert lifted == direct
    _pass(6, "representation pair counts 30/120/360/720 with bijection")


def test_criterion_07_inequivalence(specs) -> None:
    for name in FIELDS:
        spec = specs[name]
        tuples = lift.gf5_u25_tuples(spec.report_index)
        assert lift.check_inequivalence(tuples) == []
        projected = [
            (lift.domain_key(spec, p), lift.domain_key(spec, q))
            for p, q in lift.enumerate_u25(spec)
        ]
        assert lift.check_inequivalence(projected) == []
    _pass(7, "zero inequivalence violations")


def test_criterion_08_local_lift(specs) -> None:
    for name in FIELDS:
        spec = specs[name]
        tuples = lift.gf5_u25_tuples(spec.report_index)
        assert len(tuples) == PAIR_COUNTS[name]
        assert lift.local_lift_check(spec, tuples) == []
    _pass(8, "zero local-lift violations")


def test_criterion_09_lifting_spot_values(specs) -> None:
    fn2 = lift.build_lifting_fn(specs["H2"])
    assert gauss_eq(fn2.lift((2, 4)), gauss_from_text("(1 - i)/2"))
    fn3 = lift.build_lifting_fn(specs["H3"])
    assert ratfunc_eq(
        fn3.lift((2, 4, 4)), ratfunc_from_text("(-1 + a - a^2)/(-1 + a)", ("a",))
    )
    fn4 = lift.build_lifting_fn(specs["H4"])
    assert ratfunc_eq(
        fn4.lift((2, 4, 3, 4)), ratfunc_from_text("b/(b - 1)", ("a", "b"))
    )
    fn5 = lift.build_lifting_fn(specs["H5"])
    assert ratfunc_eq(
        fn5.lift((2, 4, 3, 3, 4)), ratfunc_from_text("c/a", ("a", "b", "c"))
    )
    _pass(9, "lifting spot values")


def test_criterion_10_genesis(specs) -> None:
    assert genesis.check_triples()
    assert genesis.triple_products() == [(1, 1, 1)] * 3
    residuals = genesis.relation_residuals(genesis.solved_values())
    assert len(residuals) == 3
    assert all(ratfunc_is_zero(r) for r in residuals)
    _pass(10, "genesis triples and vanishing relations")


def test_criterion_11_property_suites(specs) -> None:
    # Associate orbits are closed: every member generates the same orbit.
    for name in FIELDS:
        spec = specs[name]
        table = fundamental_table(spec)
        for entry in table.nonzero_one:
            orbit = associates(entry.value)
            keys = {factor_over_generators(spec, v) for v in orbit}
            for member in orbit:
                assert {
                    factor_over_generators(spec, v) for v in associates(member)
                } == keys

    # The coordinate hom is multiplicative on 1000 random unit pairs.
    spec = specs["H5"]
    width = len(spec.generators)
    rng = random.Random(20260817)
    for _ in range(1000):
        x = FactoredElement(
            rng.choice((1, -1)),
            (0,) + tuple(rng.randint(-3, 3) for _ in range(width - 1)),
        )
        y = FactoredElement(
            rng.choice((1, -1)),
            (0,) + tuple(rng.randint(-3, 3) for _ in range(width - 1)),
        )
        xy = FactoredElement(
            x.sign * y.sign, tuple(a + b for a, b in zip(x.exps, y.exps))
        )
        expected = tuple(
            a * b % 5 for a, b in zip(hom_gf5(spec, x), hom_gf5(spec, y))
        )
        assert hom_gf5(spec, xy) == expected

    # Rational-function equality is transitive on 1000 random triples.
    for _ in range(1000):
        arity = rng.randint(1, 3)
        num, den = {}, {}
        while not num:
            num = _random_poly(rng, arity)
        while not den:
            den = _random_poly(rng, arity)
        base = exact.RatFunc(num, den)
        scaled = []
        for _ in range(2):
            scale = {}
            while not scale:
                scale = _random_poly(rng, arity)
            scaled.append(
                exact.RatFunc(
                    poly_arith(base.num, scale, "mul"),
                    poly_arith(base.den, scale, "mul"),
                )
            )
        assert ratfunc_eq(base, scaled[0])
        assert ratfunc_eq(scaled[0], scaled[1])
        assert ratfunc_eq(base, scaled[1])

    # The lifting bijection round-trips over its whole domain.
    for name in FIELDS:
        spec = specs[name]
        fn = lift.build_lifting_fn(spec)
        domain = lift.build_domain(spec.report_index)
        assert set(fn.table) == domain
        for key in domain:
            assert lift.domain_key(spec, fn.entry_for(key)) == key

    # Brute force over all width-m tuples reproduces the domain sizes.
    domain_sizes = {2: 11, 3: 26, 4: 56, 5: 92}
    for m, expected in domain_sizes.items():
        brute = {(0,) * m, (1,) * m}
        for t in product((2, 3, 4), repeat=m):
            if max(t.count(c) for c in (2, 3, 4)) <= 2:
                brute.add(t)
        assert len(brute) == expected
        assert brute == lift.build_domain(m)
    _pass(11, "property suites")


def _random_poly(rng: random.Random, arity: int) -> exact.Poly:
    terms: exact.Poly = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, 2) for _ in range(arity))
        terms[exp] = terms.get(exp, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return exact.canonicalize(terms)


def _corrupted_spec(source_text: str, old_line: str, new_line: str):
    lines = source_text.splitlines()
    assert old_line in [line.strip() for line in lines]
    replaced = [new_line if line.strip() == old_line else line for line in lines]
    if new_line == "":
        replaced = [line for line in replaced if line != ""]
    return parse_field_spec("\n".join(replaced))


def test_criterion_12_negative_controls(specs) -> None:
    # Dropping a generator breaks the factorization of the closure.
    broken = _corrupted_spec(specs["H3"].source_text, "gen a^2 - a + 1", "")
    report = lift.theorem1_report(3, spec=broken)
    assert report["verdict"] == "FAIL"
    assert report["violations"][0]["stage"] == "fundamentals"
    assert report["violations"][0]["detail"]

    # Corrupting one hom image forces two fundamentals onto the same tuple.
    broken = _corrupted_spec(
        specs["H3"].source_text, "gf5map a 2 3 4", "gf5map a 2 3 2"
    )
    report = lift.theorem1_report(3, spec=broken)
    assert report["verdict"] == "FAIL"
    assert report["violations"][0]["stage"] == "fundamentals"
    assert "distinct" in report["violations"][0]["detail"]

    # Corrupting one fingerprint is caught by the exact survivor check.
    spec = specs["H3"]
    table = fundamental_table(spec)
    elements = [(e.element, e.value) for e in table.entries]
    result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
    fps = dict(result.fingerprints)
    victim = list(fps)[3]
    fps[victim + 1] = fps.pop(victim)
    with pytest.raises(VerificationError):
        sieve.verify_survivors(spec, result._replace(fingerprints=fps), elements)
    _pass(12, "negative controls flip the verdict")
