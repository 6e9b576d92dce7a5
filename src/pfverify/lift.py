"""Representation pairs, cross-ratio domains, and lifting checks.

A rank-2 representation of the five-point uniform matroid U_{2,5} is
normalized to a pair (p, q) of distinct nonzero-one fundamentals whose
ratio is again fundamental.  Over GF(5)^m the same data is a pair of
width-m tuples assembled from the six single-coordinate representations.
The lifting table, a dict from domain tuple to table entry built once per
spec, inverts the coordinate homomorphism on the fundamentals; the
local-lift check confirms that every tuple pair lifts to a field pair whose
ratio is fundamental.  The field report runs every check for one field and
names the stage that fails.  The payload and text builders of the `u25`,
`lift-check` and `report` commands are here too, beside the computations
they report.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from operator import sub

from .pfield import (
    FactoredElement,
    PartialFieldSpec,
    TableEntry,
    VerificationError,
    canonical_element,
    fundamental_table,
)
from .symmetry import find_automorphisms

__all__ = [
    "build_domain",
    "build_lifting_fn",
    "check_inequivalence",
    "domain_key",
    "enumerate_u25",
    "gf5_u25_tuples",
    "lift_check_payload",
    "lift_check_text",
    "local_lift_check",
    "report_text",
    "theorem1_report",
    "u25_payload",
    "u25_text",
]

GF5_REPRESENTATIONS = ((2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3))

GFTuple = tuple[int, ...]


def _ratio_element(
    spec: PartialFieldSpec, p: TableEntry, q: TableEntry
) -> FactoredElement:
    """Canonical factored form of p/q for two nonzero table entries."""
    pe, qe = p.element, q.element
    exps = tuple(x - y for x, y in zip(pe.exps, qe.exps))
    return canonical_element(spec, FactoredElement(pe.sign * qe.sign, exps))


def enumerate_u25(spec: PartialFieldSpec) -> list[tuple[TableEntry, TableEntry]]:
    """Ordered pairs of distinct nonzero-one fundamentals with fundamental
    ratio.  The ratio is looked up as a plain (sign, exps) tuple, which
    hashes and compares like the FactoredElement it equals; the Gaussian
    field's generators are dependent, so there it is canonicalised first."""
    table = fundamental_table(spec)
    gauss = spec.is_gauss
    rows = [(entry, *entry.element) for entry in table.nonzero_one]
    return [
        (p, q)
        for p, p_sign, p_exps in rows
        for q, q_sign, q_exps in rows
        if p is not q
        for ratio in [(p_sign * q_sign, tuple(map(sub, p_exps, q_exps)))]
        if (canonical_element(spec, FactoredElement(*ratio)) if gauss else ratio)
        in table.by_element
    ]


def gf5_u25_tuples(width: int) -> list[tuple[GFTuple, GFTuple]]:
    """Width-long ordered selections of the six GF(5) representations,
    transposed into one p-tuple and one q-tuple each."""
    if not 2 <= width <= 5:
        raise ValueError(f"tuple width must be 2..5, not {width}")
    return [tuple(zip(*sel)) for sel in permutations(GF5_REPRESENTATIONS, width)]


def check_inequivalence(
    tuple_pairs: list[tuple[GFTuple, GFTuple]]
) -> list[tuple[int, int, int]]:
    """(pair index, i, j) for coordinate pairs where both projections
    coincide; empty means all projections are pairwise inequivalent."""
    return [
        (idx, i, j)
        for idx, (p, q) in enumerate(tuple_pairs)
        for i, j in combinations(range(len(p)), 2)
        if p[i] == p[j] and q[i] == q[j]
    ]


def build_domain(m: int) -> frozenset[GFTuple]:
    """The width-m cross-ratio domain: the all-0 and all-1 tuples plus the
    tuples of {2,3,4}^m in which no value appears more than twice."""
    if not 2 <= m <= 5:
        raise ValueError(f"domain width must be 2..5, not {m}")
    members = {(0,) * m, (1,) * m}
    members.update(
        t for t in product((2, 3, 4), repeat=m) if max(map(t.count, t)) <= 2
    )
    return frozenset(members)


def domain_key(spec: PartialFieldSpec, entry: TableEntry) -> GFTuple:
    """Domain tuple an entry lifts from: the first k coordinates of its
    GF(5) image.  H5 (three indeterminates, k = 5) lifts through its
    width-6 image with the sixth coordinate dropped."""
    return entry.gf5_image[: spec.report_index]


@cache
def build_lifting_fn(spec: PartialFieldSpec) -> dict[GFTuple, TableEntry]:
    """The inverse of the coordinate hom on the fundamentals, checked to be
    a bijection onto the cross-ratio domain, built once per spec object."""
    mapping: dict[GFTuple, TableEntry] = {}
    for entry in fundamental_table(spec).entries:
        key = domain_key(spec, entry)
        if key in mapping:
            raise VerificationError(
                f"{spec.name}: two fundamentals share the domain tuple {key}"
            )
        mapping[key] = entry
    if set(mapping) != build_domain(spec.report_index):
        raise VerificationError(
            f"{spec.name}: fundamental images differ from the cross-ratio domain"
        )
    return mapping


def local_lift_check(
    spec: PartialFieldSpec, tuple_pairs: list[tuple[GFTuple, GFTuple]]
) -> list[tuple[int, GFTuple, GFTuple]]:
    """Lift every tuple pair and report those whose ratio fails to be
    fundamental.  A tuple outside the domain is a usage error, not a lift
    failure, and raises instead."""
    fn = build_lifting_fn(spec)
    table = fundamental_table(spec)
    violations = []
    for idx, (p, q) in enumerate(tuple_pairs):
        p, q = tuple(p), tuple(q)
        if not (p in fn and q in fn):
            raise VerificationError(
                f"{spec.name}: pair {idx} leaves the cross-ratio domain"
            )
        if _ratio_element(spec, fn[p], fn[q]) not in table.by_element:
            violations.append((idx, p, q))
    return violations


def _spec_tuples(spec: PartialFieldSpec) -> list[tuple[GFTuple, GFTuple]]:
    """The tuple pairs of width k; a k outside 2..5 fails naming the field."""
    try:
        return gf5_u25_tuples(spec.report_index)
    except ValueError as exc:
        raise ValueError(f"{spec.name}: {exc}") from None


# ---------------------------------------------------------------------------
# Field reports

EXPECTED_COUNTS = {
    2: (11, 2, 30, 11),
    3: (26, 6, 120, 26),
    4: (56, 24, 360, 56),
    5: (92, 720, 720, 92),
}


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise VerificationError(detail)


def theorem1_report(spec: PartialFieldSpec) -> dict:
    """Run every verification stage for one field in this process and
    bundle the counts and the first stage to raise VerificationError or
    ValueError into one verdict.

    Defined for k = spec.report_index in 2..5; the k=1 and k=6 cases need
    no computation and are out of scope."""
    k = spec.report_index
    if k not in EXPECTED_COUNTS:
        raise ValueError(f"{spec.name}: report is defined for k in 2..5, not k={k}")
    expect_funs, expect_auts, expect_pairs, expect_domain = EXPECTED_COUNTS[k]
    counts = {"fundamentals": 0, "automorphisms": 0, "u25_pairs": 0, "domain": 0}
    violations: list[dict] = []
    try:
        stage = "fundamentals"
        table = fundamental_table(spec)
        counts[stage] = len(table.entries)
        _require(
            len(table.entries) == expect_funs,
            f"expected {expect_funs} fundamentals, found {len(table.entries)}",
        )
        stage = "automorphisms"
        group = find_automorphisms(spec)
        counts[stage] = len(group.elements)
        _require(
            len(group.elements) == expect_auts,
            f"expected {expect_auts} symmetries, found {len(group.elements)}",
        )
        perms = {aut.coord_perm for aut in group.elements}
        _require(
            perms == set(permutations(range(spec.gf5_width))),
            "induced permutations do not realize the full symmetric group",
        )
        stage = "u25_pairs"
        pairs = enumerate_u25(spec)
        counts[stage] = len(pairs)
        _require(
            len(pairs) == expect_pairs,
            f"expected {expect_pairs} field-side pairs, found {len(pairs)}",
        )
        tuples = gf5_u25_tuples(k)
        _require(
            len(tuples) == expect_pairs,
            f"expected {expect_pairs} tuple-side pairs, found {len(tuples)}",
        )
        stage = "inequivalence"
        bad = check_inequivalence([(p.gf5_image, q.gf5_image) for p, q in pairs])
        _require(
            not bad, f"projections coincide at (pair, i, j) = {bad[0]}" if bad else ""
        )
        stage = "domain"
        domain = build_domain(k)
        counts[stage] = len(domain)
        _require(
            len(domain) == expect_domain,
            f"expected {expect_domain} domain members, found {len(domain)}",
        )
        stage = "lifting"
        build_lifting_fn(spec)
        # Equal counts, a bijective table, fundamental ratios: lifts = field pairs.
        stage = "local_lift"
        bad_lifts = local_lift_check(spec, tuples)
        _require(
            not bad_lifts,
            f"ratio not fundamental at {bad_lifts[0]}" if bad_lifts else "",
        )
    except (VerificationError, ValueError) as exc:
        violations.append({"stage": stage, "detail": str(exc)})
    return {
        "field": spec.name,
        "counts": counts,
        "homs": {
            "inequivalence": f"width-{spec.gf5_width}",
            "lifting": f"width-{k}",
        },
        "violations": violations,
        "verdict": "PASS" if not violations else "FAIL",
    }


# ---------------------------------------------------------------------------
# Command output: payloads (dicts that double as the JSON output) and text


def u25_payload(spec: PartialFieldSpec) -> dict:
    """Field-side pairs against tuple-side pairs, and whether the domain
    tuples of the field-side pairs are exactly the tuple side."""
    pairs = enumerate_u25(spec)
    tuples = _spec_tuples(spec)
    field_keys = {(domain_key(spec, p), domain_key(spec, q)) for p, q in pairs}
    bijection = len(pairs) == len(tuples) and field_keys == set(tuples)
    return {
        "field": spec.name,
        "field_side": len(pairs),
        "tuple_side": len(tuples),
        "bijection": bijection,
        "verdict": "PASS" if bijection else "FAIL",
    }


def u25_text(payload: dict) -> list[str]:
    return [
        f"{payload['field']}: field-side pairs {payload['field_side']}, "
        f"tuple-side pairs {payload['tuple_side']}, "
        f"bijection {payload['verdict']}"
    ]


def lift_check_payload(spec: PartialFieldSpec) -> dict:
    """Every tuple pair lifted, with each pair whose lift ratio is not
    fundamental."""
    tuples = _spec_tuples(spec)
    violations = local_lift_check(spec, tuples)
    return {
        "field": spec.name,
        "pairs": len(tuples),
        "violations": [
            {"pair": idx, "p": list(p), "q": list(q)} for idx, p, q in violations
        ],
        "verdict": "PASS" if not violations else "FAIL",
    }


def lift_check_text(payload: dict) -> list[str]:
    lines = [
        f"{payload['field']}: {payload['pairs']} tuple pairs lift "
        f"{payload['verdict']}"
    ]
    for v in payload["violations"]:
        lines.append(
            f"  FAIL pair {v['pair']}: ratio of lifts of "
            f"{tuple(v['p'])}, {tuple(v['q'])} is not fundamental"
        )
    return lines


def report_text(payload: dict) -> list[str]:
    """The lines of one theorem1_report payload."""
    lines = [f"{payload['field']} verification report"]
    for stage, count in payload["counts"].items():
        lines.append(f"  {stage}: {count}")
    homs = payload["homs"]
    lines.append(
        f"  homs: inequivalence {homs['inequivalence']}, "
        f"lifting {homs['lifting']}"
    )
    for violation in payload["violations"]:
        lines.append(f"  FAIL at {violation['stage']}: {violation['detail']}")
    lines.append(f"  verdict: {payload['verdict']}")
    return lines
