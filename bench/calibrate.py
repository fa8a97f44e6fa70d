"""Host-speed calibration: a fixed piece of exact arithmetic that imports
nothing from superbc, timed in the harness between repetitions.

The benchmark's host is a few virtual CPUs of a shared machine whose speed
drifts by 20 to 40% over seconds to minutes, moving every timing together.
So the harness measures the host on both sides of every repetition, with
two probes that run no superbc code, and multiplies the repetition's times
by a reference time over the probe's:

- this kernel, for the work of library items (its mean over the two sides);
- a fresh interpreter importing only the standard modules superbc uses
  (`bench/worker.py` in its `stdlib` mode), for set-up time and for
  workloads of short CLI invocations, which are mostly start-up (the
  median of the starts on the two sides).

That takes most of the drift out and leaves the program's own speed in: a
change to superbc cannot move either probe.  The kernel does, in
miniature, what superbc spends its time on: a fraction-free (Bareiss)
elimination over Fractions, evaluation of a sparse multivariate polynomial
with Fraction coefficients at rational points, and Euclid's gcd of
univariate polynomials over Q with the growth of big integers that brings.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Round figures near the median times of the kernel and of a
# standard-library start on the host the baseline was measured on (Intel
# Xeon, 2 vCPUs, Python 3.11.7).  They only set the scale: scaled times
# read as seconds on that host at about its median speed.
REF_S = 0.30
START_REF_S = 0.060

_SIZE = 18  # the eliminated matrix is _SIZE x (_SIZE + 1)
_VARS = 4
_TERMS = 120
_POINTS = 150
_GCD_DEGREE = 12
_GCD_PAIRS = 50


def _inputs():
    rng = random.Random(20231213)
    matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(_SIZE + 1)]
              for _ in range(_SIZE)]
    poly = {tuple(rng.randint(0, 5) for _ in range(_VARS)): Fraction(rng.randint(-99, 99), rng.randint(1, 9))
            for _ in range(_TERMS)}
    points = [tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(_VARS))
              for _ in range(_POINTS)]
    common = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)] + [Fraction(1)]
    pairs = []
    for _ in range(_GCD_PAIRS):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(_GCD_DEGREE)] + [Fraction(1)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(_GCD_DEGREE - 1)] + [Fraction(1)]
        pairs.append((_pmul(a, common), _pmul(b, common)))
    return matrix, poly, points, pairs


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pgcd(a, b):
    while b:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for k, y in enumerate(b):
                r[shift + k] -= q * y
            r.pop()
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return [c / a[-1] for c in a]


def _bareiss(rows):
    aug = [list(r) for r in rows]
    prev = Fraction(1)
    for c in range(len(aug)):
        pivot = aug[c][c]
        for i in range(c + 1, len(aug)):
            head = aug[i][c]
            for j in range(c + 1, len(aug[i])):
                aug[i][j] = (pivot * aug[i][j] - head * aug[c][j]) / prev
            aug[i][c] = Fraction(0)
        prev = pivot
    return prev


def _evaluate(poly, point):
    powers = [[Fraction(1)] for _ in point]
    for v, x in enumerate(point):
        for _ in range(5):
            powers[v].append(powers[v][-1] * x)
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for v, e in enumerate(exps):
            term *= powers[v][e]
        total += term
    return total


def kernel() -> Fraction:
    """One fixed unit of work; returns a value so nothing is skipped."""
    matrix, poly, points, pairs = _inputs()
    acc = _bareiss(matrix)
    for point in points:
        acc += _evaluate(poly, point)
    for a, b in pairs:
        acc += sum(_pgcd(a, b))
    return acc


def sample() -> float:
    """Seconds one kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
