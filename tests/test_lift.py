"""Tests for representation pairs, cross-ratio domains, and lifting."""

from __future__ import annotations

from itertools import product

import pytest

from pfverify import lift
from pfverify.exact import gauss_eq, gauss_from_text, ratfunc_eq, ratfunc_from_text
from pfverify.pfield import (
    VerificationError,
    builtin_specs,
    fundamental_table,
    parse_field_spec,
)


@pytest.fixture(scope="module")
def specs():
    return builtin_specs()


# ---------------------------------------------------------------------------
# Representation pairs over the fields

PAIR_COUNTS = {"H2": 30, "H3": 120, "H4": 360, "H5": 720}

GAUSS_PAIR_TEXTS = [
    ("-1", "-i"),
    ("-1", "i"),
    ("-i", "-1"),
    ("-i", "i"),
    ("-i", "1/2 - i/2"),
    ("-i", "1 - i"),
    ("i", "-1"),
    ("i", "-i"),
    ("i", "1/2 + i/2"),
    ("i", "1 + i"),
    ("1/2", "1/2 - i/2"),
    ("1/2", "1/2 + i/2"),
    ("1/2 - i/2", "-i"),
    ("1/2 - i/2", "1/2"),
    ("1/2 - i/2", "1/2 + i/2"),
    ("1/2 - i/2", "1 - i"),
    ("1/2 + i/2", "i"),
    ("1/2 + i/2", "1/2"),
    ("1/2 + i/2", "1/2 - i/2"),
    ("1/2 + i/2", "1 + i"),
    ("1 - i", "-i"),
    ("1 - i", "1/2 - i/2"),
    ("1 - i", "1 + i"),
    ("1 - i", "2"),
    ("1 + i", "i"),
    ("1 + i", "1/2 + i/2"),
    ("1 + i", "1 - i"),
    ("1 + i", "2"),
    ("2", "1 - i"),
    ("2", "1 + i"),
]


def test_pair_counts(specs) -> None:
    for name, count in PAIR_COUNTS.items():
        assert len(lift.enumerate_u25(specs[name])) == count


def test_gaussian_first_pair_is_minus_one_minus_i(specs) -> None:
    first = lift.enumerate_u25(specs["H2"])[0]
    assert gauss_eq(first[0].value, gauss_from_text("-1"))
    assert gauss_eq(first[1].value, gauss_from_text("-i"))


def test_gaussian_pair_set_matches_the_printed_thirty(specs) -> None:
    pairs = lift.enumerate_u25(specs["H2"])
    got = {(p.value, q.value) for p, q in pairs}
    expected = {
        (gauss_from_text(a), gauss_from_text(b)) for a, b in GAUSS_PAIR_TEXTS
    }
    assert got == expected


def test_pair_enumeration_is_swap_symmetric(specs) -> None:
    for name in ("H3", "H4"):
        pairs = lift.enumerate_u25(specs[name])
        keys = {(p.element, q.element) for p, q in pairs}
        assert {(q, p) for p, q in keys} == keys


@pytest.mark.parametrize("name", sorted(PAIR_COUNTS))
def test_pair_enumeration_is_the_pairwise_ratio_filter(specs, name) -> None:
    # enumerate_u25 looks ratios up as plain (sign, exps) tuples; its
    # definition factors each ratio, canonical on H2's dependent generators.
    spec = specs[name]
    table = fundamental_table(spec)
    by_definition = [
        (p, q)
        for p in table.nonzero_one
        for q in table.nonzero_one
        if p is not q and lift._ratio_element(spec, p, q) in table.by_element
    ]
    assert lift.enumerate_u25(spec) == by_definition
    assert len(by_definition) == PAIR_COUNTS[name]


def test_pair_members_are_nonzero_one_and_distinct(specs) -> None:
    table = fundamental_table(specs["H3"])
    allowed = set(e.element for e in table.nonzero_one)
    for p, q in lift.enumerate_u25(specs["H3"]):
        assert p.element != q.element
        assert p.element in allowed and q.element in allowed


# ---------------------------------------------------------------------------
# Representation pairs over GF(5) tuples


def test_tuple_counts() -> None:
    assert len(lift.gf5_u25_tuples(2)) == 30
    assert len(lift.gf5_u25_tuples(3)) == 120
    assert len(lift.gf5_u25_tuples(4)) == 360
    assert len(lift.gf5_u25_tuples(5)) == 720


def test_first_width_two_tuple_pair() -> None:
    assert lift.gf5_u25_tuples(2)[0] == ((2, 2), (3, 4))


def test_tuple_pairs_differ_in_every_coordinate() -> None:
    for width in range(2, 6):
        for p, q in lift.gf5_u25_tuples(width):
            assert all(x != y for x, y in zip(p, q))


# ---------------------------------------------------------------------------
# Inequivalence of coordinate projections


def hom_pairs(spec):
    return [
        (p.gf5_image, q.gf5_image) for p, q in lift.enumerate_u25(spec)
    ]


def test_no_inequivalence_violations(specs) -> None:
    for name in ("H2", "H3", "H4", "H5"):
        assert lift.check_inequivalence(hom_pairs(specs[name])) == []


def test_six_wide_images_are_checked_pairwise(specs) -> None:
    pairs = hom_pairs(specs["H5"])
    assert all(len(p) == 6 and len(q) == 6 for p, q in pairs)


def test_artificial_equal_projection_is_reported() -> None:
    violations = lift.check_inequivalence([((2, 2), (3, 3))])
    assert violations == [(0, 0, 1)]


# ---------------------------------------------------------------------------
# Cross-ratio domains

DOMAIN_SIZES = {2: 11, 3: 26, 4: 56, 5: 92}


def test_domain_sizes() -> None:
    for m, size in DOMAIN_SIZES.items():
        assert len(lift.build_domain(m)) == size


def test_domain_membership_rules() -> None:
    domain = lift.build_domain(3)
    assert (0, 0, 0) in domain and (1, 1, 1) in domain
    for c in (2, 3, 4):
        assert (c, c, c) not in domain
    assert (2, 2, 3) in domain


def test_domain_brute_force_cross_check() -> None:
    for m in range(2, 6):
        expected = {(0,) * m, (1,) * m}
        for t in product((2, 3, 4), repeat=m):
            if max(t.count(c) for c in (2, 3, 4)) <= 2:
                expected.add(t)
        assert lift.build_domain(m) == expected


def test_width_two_domain_is_the_gaussian_image_set(specs) -> None:
    table = fundamental_table(specs["H2"])
    assert {e.gf5_image for e in table.entries} == lift.build_domain(2)


# ---------------------------------------------------------------------------
# Lifting functions


def test_lifting_spot_values(specs) -> None:
    up2 = lift.build_lifting_fn(specs["H2"])
    assert gauss_eq(up2[(2, 4)].value, gauss_from_text("(1 - i)/2"))

    up3 = lift.build_lifting_fn(specs["H3"])
    expected3 = ratfunc_from_text("(-1 + a - a^2)/(-1 + a)", ("a",))
    assert ratfunc_eq(up3[(2, 4, 4)].value, expected3)

    up4 = lift.build_lifting_fn(specs["H4"])
    expected4 = ratfunc_from_text("b/(-1 + b)", ("a", "b"))
    assert ratfunc_eq(up4[(2, 4, 3, 4)].value, expected4)

    up5 = lift.build_lifting_fn(specs["H5"])
    expected5 = ratfunc_from_text("c/a", ("a", "b", "c"))
    assert ratfunc_eq(up5[(2, 4, 3, 3, 4)].value, expected5)


def test_lifting_all_ones_gives_one(specs) -> None:
    fn = lift.build_lifting_fn(specs["H3"])
    one = ratfunc_from_text("1", ("a",))
    assert ratfunc_eq(fn[(1, 1, 1)].value, one)


def test_lifting_round_trip(specs) -> None:
    for name in ("H2", "H3", "H4", "H5"):
        spec = specs[name]
        table = fundamental_table(spec)
        fn = lift.build_lifting_fn(spec)
        for entry in table.entries:
            assert fn[lift.domain_key(spec, entry)] is entry


def test_lifting_is_total_on_the_domain(specs) -> None:
    for name in ("H2", "H3", "H4", "H5"):
        spec = specs[name]
        fn = lift.build_lifting_fn(spec)
        assert set(fn) == lift.build_domain(spec.report_index)


def test_unknown_key_is_rejected(specs) -> None:
    fn = lift.build_lifting_fn(specs["H3"])
    assert (2, 2, 2) not in fn


def test_the_lifting_table_is_built_once_per_spec(specs, monkeypatch) -> None:
    spec = specs["H3"]
    assert lift.build_lifting_fn(spec) is lift.build_lifting_fn(spec)
    renamed = spec._replace(name="H3-renamed")
    keyed = []
    key = lift.domain_key
    monkeypatch.setattr(
        lift, "domain_key", lambda s, entry: keyed.append(entry) or key(s, entry)
    )
    for run in (lift.theorem1_report, lift.lift_check_payload, lift.theorem1_report):
        assert run(renamed)["verdict"] == "PASS"
    # One domain_key call per table entry: the table was filled once.
    assert len(keyed) == len(fundamental_table(renamed).entries) == 26
    own = lift.build_lifting_fn(renamed)
    assert own is not lift.build_lifting_fn(spec)
    assert set(own) == set(lift.build_lifting_fn(spec))
    assert all(own[key(renamed, e)] is e for e in fundamental_table(renamed).entries)


# ---------------------------------------------------------------------------
# Local lift checks


def test_no_local_lift_violations(specs) -> None:
    for name, width in (("H2", 2), ("H3", 3), ("H4", 4), ("H5", 5)):
        tuples = lift.gf5_u25_tuples(width)
        assert lift.local_lift_check(specs[name], tuples) == []


def test_lifted_tuples_biject_with_the_field_pairs(specs) -> None:
    for name, width in (("H2", 2), ("H3", 3), ("H5", 5)):
        spec = specs[name]
        fn = lift.build_lifting_fn(spec)
        lifted = {
            (fn[p].element, fn[q].element)
            for p, q in lift.gf5_u25_tuples(width)
        }
        direct = {
            (p.element, q.element) for p, q in lift.enumerate_u25(spec)
        }
        assert lifted == direct


def test_out_of_domain_tuple_is_a_domain_violation(specs) -> None:
    with pytest.raises(VerificationError):
        lift.local_lift_check(specs["H3"], [((2, 2, 2), (3, 4, 2))])


# ---------------------------------------------------------------------------
# Field reports

EXPECTED_COUNTS = {
    2: (11, 2, 30, 11),
    3: (26, 6, 120, 26),
    4: (56, 24, 360, 56),
    5: (92, 720, 720, 92),
}


def report_counts(report) -> tuple[int, int, int, int]:
    c = report["counts"]
    return (c["fundamentals"], c["automorphisms"], c["u25_pairs"], c["domain"])


def test_report_passes_for_k3(specs) -> None:
    report = lift.theorem1_report(specs["H3"])
    assert report["verdict"] == "PASS"
    assert report["violations"] == []
    assert report_counts(report) == EXPECTED_COUNTS[3]
    assert report["field"] == "H3"


def test_report_passes_for_k5(specs) -> None:
    report = lift.theorem1_report(specs["H5"])
    assert report["verdict"] == "PASS"
    assert report_counts(report) == EXPECTED_COUNTS[5]


def test_report_passes_for_k2_and_k4(specs) -> None:
    for k in (2, 4):
        report = lift.theorem1_report(specs[f"H{k}"])
        assert report["verdict"] == "PASS"
        assert report_counts(report) == EXPECTED_COUNTS[k]


def test_report_states_the_hom_widths(specs) -> None:
    report = lift.theorem1_report(specs["H5"])
    assert report["homs"] == {"inequivalence": "width-6", "lifting": "width-5"}
    report = lift.theorem1_report(specs["H3"])
    assert report["homs"] == {"inequivalence": "width-3", "lifting": "width-3"}


def test_report_fails_for_a_corrupted_spec(specs) -> None:
    lines = [
        line
        for line in specs["H3"].source_text.splitlines()
        if line.strip() != "gen a^2 - a + 1"
    ]
    corrupted = parse_field_spec("\n".join(lines))
    assert corrupted.source_text != specs["H3"].source_text
    report = lift.theorem1_report(corrupted)
    assert report["verdict"] == "FAIL"
    assert report["violations"][0]["stage"] == "fundamentals"


# The function each stage calls first that can fail, the stage, and the
# counts H3 reaches before it.
STAGE_FAILURES = [
    ("fundamental_table", "fundamentals", (0, 0, 0, 0)),
    ("find_automorphisms", "automorphisms", (26, 0, 0, 0)),
    ("enumerate_u25", "u25_pairs", (26, 6, 0, 0)),
    ("check_inequivalence", "inequivalence", (26, 6, 120, 0)),
    ("build_domain", "domain", (26, 6, 120, 0)),
    ("build_lifting_fn", "lifting", (26, 6, 120, 26)),
    ("local_lift_check", "local_lift", (26, 6, 120, 26)),
]


@pytest.mark.parametrize("error", [VerificationError, ValueError])
@pytest.mark.parametrize(
    "function, stage, counts", STAGE_FAILURES, ids=[s for _, s, _ in STAGE_FAILURES]
)
def test_each_report_stage_names_its_own_failure(
    specs, monkeypatch, function, stage, counts, error
) -> None:
    def fail(*args):
        raise error(f"{function} failed")

    monkeypatch.setattr(lift, function, fail)
    report = lift.theorem1_report(specs["H3"])
    assert report["violations"] == [{"stage": stage, "detail": f"{function} failed"}]
    assert report_counts(report) == counts
    assert report["verdict"] == "FAIL"


def test_report_rejects_out_of_scope_k(specs) -> None:
    for k in (1, 6):
        with pytest.raises(ValueError):
            lift.theorem1_report(specs["H3"]._replace(report_index=k))
