"""Fixed reference workload that measures how fast this machine runs now.

    python3 perfbench/reference.py

A cold interpreter imports the standard modules pfverify uses and does the
kinds of work pfverify spends its time on: an integer loop, products of
sparse polynomials with big integer coefficients, Fourier-Motzkin style
combinations of rows of Fractions, and products of powers of residues
modulo a prime.  It never imports pfverify, so it does the same work at
every commit: ``run.py`` divides pfverify's CPU time by this process's CPU
time, measured next to it, to cancel the slow stretches of a shared host.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import hashlib  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import multiprocessing  # noqa: F401
from fractions import Fraction

P = 22801763489


def integer_loop(n: int = 500_000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def sparse_products(rounds: int = 3) -> int:
    poly = {
        (i, j, k): (i * 7919 + j * 104729 + k + 1) ** 3
        for i in range(6)
        for j in range(5)
        for k in range(4)
    }
    acc = 1
    for _ in range(rounds):
        product: dict[tuple[int, int, int], int] = {}
        for ma, ca in poly.items():
            for mb, cb in poly.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                product[m] = product.get(m, 0) + ca * cb
        for e, c in enumerate(product.values()):
            acc = acc * pow(c % P + 2, e + 1000003, P) % P
        poly = {m: c % (P * P) for m, c in list(product.items())[:120]}
    return acc


def rational_elimination(rows: int = 24, width: int = 7) -> int:
    table = [
        tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(width))
        for i in range(rows)
    ]
    kept: dict[tuple[Fraction, ...], int] = {}
    for j in range(width):
        pos = [r for r in table if r[j] > 0]
        neg = [r for r in table if r[j] < 0]
        for pr in pos:
            for nr in neg:
                ps, ns = pr[j], -nr[j]
                row = tuple(a / ps + b / ns for a, b in zip(pr, nr))
                kept[row] = kept.get(row, 0) + 1
    return len(kept)


def residue_products(n: int = 15_000) -> int:
    residues = (3, 5, 7919, 104729, 1299709, 15485863)
    acc = 0
    for i in range(n):
        total = 1
        for k, r in enumerate(residues):
            e = (i >> k) % 7
            if e:
                total = total * pow(r, e, P) % P
        acc ^= total
    return acc


if __name__ == "__main__":
    integer_loop()
    sparse_products()
    rational_elimination()
    residue_products()
