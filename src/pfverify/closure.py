"""Route one of the fundamental table: the associate closure of the seeds.

The seeds are closed under the six associate maps, and every value found
gets a factored form over the generators.  Only the seeds and each root's
1 - x are factored; every other form follows by exponent arithmetic.  The
route reads nothing of the modular map that route two, the exponent-box
sieve in `sieve`, decides by: values are bucketed by their screen residue
(mod 2^61 - 1) and told apart exactly by `value_eq`.  Only a table build
runs this module; `pfield.build_fundamental_table` cross-checks its result
against the sieve's.
"""

from __future__ import annotations

from .exact import SCREEN_PRIME, GaussDyadic, RatFunc
from .pfield import (
    _ASSOCIATE_OPS,
    _S3,
    FactoredElement,
    PartialFieldSpec,
    VerificationError,
    _orbit,
    _value_ops,
    canonical_element,
    factor_over_generators,
    value_eq,
    value_text,
)


def _closure_of_seeds(
    spec: PartialFieldSpec,
) -> tuple[list, list[tuple[int, int]], dict[int, RatFunc | GaussDyadic]]:
    """Distinct values reachable from the seeds by taking associates, in the
    depth-first order of a stack of labels (parent index, map k, root seed x,
    g in S3) for e_g(x) = e_k(parent).  A popped label that no kept value of
    x settles gets a form, built from its parent's, and is kept, pushing its
    associates(), unless value_eq finds it among the kept values sharing its
    screen key.  Soundness: for x not in {0, 1}, e_i(e_j(x)) = e_{_S3[i][j]}(x),
    so e_g(x) = e_h(x) iff g and h share a class of _orbit(x), which the
    screens and value_eq compute once per root.  Across roots, and in the
    orbit {0, 1} of a seed 0 or 1, value_eq decides.

    Returns the values, each value's label (x, g), where in the orbit
    {0, 1} g is the value itself, and 1 - x for each root x outside {0, 1},
    the form _orbit builds.
    """
    zero, one, sub, div, eq = _value_ops(spec.seeds[0])
    values: list = []
    labels: list[tuple[int, int]] = []  # the (root seed, g) of each kept value
    classes: dict[int, tuple[int, ...] | None] = {}  # _orbit classes per root
    complements: dict = {}  # 1 - x per root x outside {0, 1}
    kept: set[tuple[int, int]] = set()  # (root, class of g) of kept values
    buckets: dict = {}
    stack = [(None, 0, r, 0) for r in range(len(spec.seeds))]
    while stack:
        parent, k, root, g = stack.pop()
        cls = classes.get(root)
        if cls is not None and (root, cls[g]) in kept:
            continue
        if parent is None:
            v = spec.seeds[root]
        elif cls is None:
            v = (zero, one)[k]
        else:
            v = _ASSOCIATE_OPS[k](values[parent], one, sub, div)
        if spec.is_gauss:
            key = v
        else:
            num, den = v.screen_residues
            key = num * pow(den, -1, SCREEN_PRIME) % SCREEN_PRIME if den else None
        if key is None:
            probe = range(len(values))
        else:
            probe = buckets.get(key, []) + buckets.get(None, [])
        if any(
            value_eq(values[i], v) for i in probe if not cls or labels[i][0] != root
        ):
            continue
        i = len(values)
        if parent is None:
            forms, cls = _orbit(v, zero, one, sub, div, eq)
            classes[root] = cls
            if cls is None:
                g = int(not eq(v, zero))
            else:
                complements[root] = forms[1]
        buckets.setdefault(key, []).append(i)
        values.append(v)
        labels.append((root, g))
        if cls is None:
            stack += [(i, j, root, j) for j in (0, 1)]
            continue
        kept.add((root, cls[g]))
        pushes: dict = {}  # the first associate of each class, in map order
        for j, h in enumerate(row[g] for row in _S3):
            pushes.setdefault(cls[h], (i, j, root, h))
        stack += pushes.values()
    return values, labels, complements


def _factor_table_value(
    spec: PartialFieldSpec,
    x: RatFunc | GaussDyadic,
    stage: str,
    text: str | None = None,
) -> FactoredElement:
    """factor_over_generators, failing with the field, the stage and the
    element named: by its spec text if given, else rendered."""
    try:
        return factor_over_generators(spec, x)
    except ValueError:
        if text is None:
            text = value_text(spec, x)
        raise VerificationError(
            f"{spec.name}: {stage} {text!r} is not a unit over the generators"
        ) from None


def _closure_elements(
    spec: PartialFieldSpec,
) -> list[tuple[FactoredElement, RatFunc | GaussDyadic]]:
    """Route one: the closure values, each with its factored form.

    Only the seeds and each root's 1 - x are factored, and a non-unit among
    them fails naming it.  With x = (s, e) and 1 - x = (t, f), the other
    forms follow exactly: 1/(1 - x) = (t, -f), x/(x - 1) = (-st, e - f),
    (x - 1)/x = (-st, f - e) and 1/x = (s, -e).  The value k of the orbit
    {0, 1} is (k, 0)."""
    # A seed that is no unit fails here, before its associates, which can be
    # far larger than the seed, are built and compared.
    seeds = [
        _factor_table_value(spec, seed, f"seed {i}", text)
        for i, (text, seed) in enumerate(zip(spec.seed_exprs, spec.seeds), start=1)
    ]
    values, labels, complements = _closure_of_seeds(spec)
    orbits = {}
    for root, complement in complements.items():
        s, e = seeds[root]
        t, f = _factor_table_value(spec, complement, "closure element")
        d = tuple(x - y for x, y in zip(e, f))
        orbits[root] = [
            (s, e), (t, f), (t, tuple(-y for y in f)),
            (-s * t, d), (-s * t, tuple(-x for x in d)), (s, tuple(-x for x in e)),
        ]
    zeros = (0,) * len(spec.generators)
    return [
        (
            canonical_element(spec, FactoredElement(*orbits[root][g]))
            if root in orbits
            else FactoredElement(g, zeros),
            v,
        )
        for v, (root, g) in zip(values, labels)
    ]
