"""Microbenchmarks of the exact-arithmetic kernels in ``pfverify.exact``.

Inputs are drawn with a seeded generator from fundamental elements of H3
(its fundamental table, which builds in milliseconds) and of H5 (its seeds
and their associates, all members of the H5 table, whose build takes
seconds).  Each input is timed over enough repeated calls to last about
a millisecond, giving one per-call time per input.  For each kernel
the result holds the median and 90th percentile of those per-call times in
microseconds, and the operation count of the input set:

- ``poly_arith``: products of a numerator and a denominator, as in
  ``ratfunc_eq``; ops are monomial products.
- ``ratfunc_eq``: pairs of elements, a fifth of them equal; ops are
  monomial products of the two cross-multiplications.
- ``poly_subst``: a seed numerator or denominator with every variable
  replaced by an element, as in symmetry confirmation; ops are terms
  substituted.
- ``mod_eval``: factored forms at the shipped fingerprint prime; ops are
  modular powerings.

A kernel the program no longer defines, or no longer accepts these
arguments, is left out of the result.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

INPUTS_PER_FIELD = 48
TARGET_S = 1e-3


def _per_call_us(call) -> float:
    start = perf_counter()
    call()
    once = perf_counter() - start
    reps = max(1, min(10_000, int(TARGET_S / max(once, 1e-7))))
    start = perf_counter()
    for _ in range(reps):
        call()
    return (perf_counter() - start) / reps * 1e6


def _pools(pfield):
    """Per field: (spec, elements, factored forms, modular map)."""
    specs = pfield.builtin_specs()
    h3 = specs["H3"]
    table = pfield.fundamental_table(h3)
    h3_values = [e.value for e in table.entries if e.element.sign != 0]
    h3_factored = [e.element for e in table.entries]
    h5 = specs["H5"]
    h5_values = [
        v for seed in h5.seeds for v in pfield.associates(seed) if v.num
    ]
    h5_factored = [pfield.factor_over_generators(h5, v) for v in h5_values]
    return (
        (h3, h3_values, h3_factored, table.mod_map),
        (h5, h5_values, h5_factored, h5.mod_map()),
    )


def _cases(exact, pools, rng):
    """(kernel, list of (call, ops)) for every kernel present."""
    cases = {}
    if hasattr(exact, "poly_arith"):
        def arith(a, b):
            return lambda: exact.poly_arith(a, b, "mul")
        cases["poly_arith"] = [
            (arith(x.num, y.den), len(x.num) * len(y.den))
            for _, values, _, _ in pools
            for x, y in (rng.sample(values, 2) for _ in range(INPUTS_PER_FIELD))
        ]
    if hasattr(exact, "ratfunc_eq"):
        def eq(a, b):
            return lambda: exact.ratfunc_eq(a, b)
        pairs = []
        for _, values, _, _ in pools:
            for i in range(INPUTS_PER_FIELD):
                x = rng.choice(values)
                y = x if i % 5 == 0 else rng.choice(values)
                ops = len(x.num) * len(y.den) + len(y.num) * len(x.den)
                pairs.append((eq(x, y), ops))
        cases["ratfunc_eq"] = pairs
    if hasattr(exact, "poly_subst"):
        def subst(poly, images):
            return lambda: exact.poly_subst(poly, images)
        substs = []
        for spec, values, _, _ in pools:
            for _ in range(INPUTS_PER_FIELD):
                seed = rng.choice(spec.seeds)
                poly = seed.num if rng.random() < 0.5 else seed.den
                images = [rng.choice(values) for _ in range(spec.arity)]
                substs.append((subst(poly, images), len(poly)))
        cases["poly_subst"] = substs
    if hasattr(exact, "mod_eval"):
        def modular(mm, fe):
            return lambda: exact.mod_eval(mm, fe.sign, fe.exps)
        cases["mod_eval"] = [
            (modular(mm, fe), sum(1 for e in fe.exps if e))
            for _, _, factored, mm in pools
            for fe in (rng.choice(factored) for _ in range(INPUTS_PER_FIELD))
        ]
    return cases


def run_kernels(seed: int) -> dict[str, float]:
    """Per-layer kernel metrics, keyed ``exact.<kernel>_us[.p90|.ops]``."""
    from pfverify import exact, pfield

    rng = random.Random(seed)
    try:
        cases = _cases(exact, _pools(pfield), rng)
    except (AttributeError, TypeError):
        return {}
    metrics: dict[str, float] = {}
    for kernel, inputs in cases.items():
        try:
            times = [_per_call_us(call) for call, _ in inputs]
        except (TypeError, ValueError):
            continue
        name = f"exact.{kernel}_us"
        metrics[name] = statistics.median(times)
        metrics[f"{name}.p90"] = statistics.quantiles(times, n=10)[8]
        metrics[f"{name}.ops"] = sum(ops for _, ops in inputs)
    return metrics
