"""Closed-form oracles for the benchmark's exact-answer gate.

Nothing here imports gtflow: each value is computed from a textbook formula,
so a change inside the library cannot move the expected answers.
"""

from __future__ import annotations

import math
from fractions import Fraction


def weyl_dimension(lam) -> int:
    """Lattice points of GT(lam): prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    num = den = 1
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"Weyl dimension of {lam} is not an integer")
    return q


def gt_volume(lam) -> Fraction:
    """Volume of GT(lam): prod_{i<j} (lam_i - lam_j) / (j - i)."""
    vol = Fraction(1)
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            vol *= Fraction(lam[i] - lam[j], j - i)
    return vol


def staircase_shsyt_count(n: int) -> int:
    """Shifted standard tableaux of staircase shape (n, ..., 1), by the
    shifted hook-length formula in product form:
    N! prod_{k<n} k! / (2k+1)!,  N = n(n+1)/2."""
    num = math.factorial(n * (n + 1) // 2)
    den = 1
    for k in range(n):
        num *= math.factorial(k)
        den *= math.factorial(2 * k + 1)
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"shSYT count for n={n} is not an integer")
    return q


# Record count of every identity family in `gtflow verify --scope all
# --bounds n=4,lmax=4` at the commit that introduced this benchmark.  A later
# commit may add records but never drop below these, so a speed-up cannot
# come from checking less.
VERIFY_FAMILY_COUNTS = {
    "diagonal-kostant/count": 84,
    "diagonal-kostant/flow-roundtrip": 3,
    "diagonal-kostant/tableau-roundtrip": 3,
    "extension-bijection/count": 9,
    "gt/pattern-flow-bijection": 1,
    "gt/pts:weyl=enumeration": 125,
    "gt/pts:weyl=kostant": 120,
    "gt/pts:weyl=lidskii": 125,
    "gt/vol:product=lidskii": 125,
    "gt/vol:product=shsyt": 125,
    "kostant/dp=enumeration": 22,
    "lidskii/binomial=count": 22,
    "lidskii/dilation=enumeration": 66,
    "lidskii/ehrhart-degree": 22,
    "lidskii/multiset=count": 22,
    "lidskii/volume=ehrhart-lead": 22,
    "log-concavity/adjacent-trade": 25,
    "marked-volume/ehrhart-lead": 13,
    "minkowski/support-additivity": 26,
    "order-flow/count": 13,
    "order-flow/gamma-bijection": 13,
    "order-flow/gamma-inverse": 13,
    "order-flow/volume=lidskii": 10,
    "order-polytope/ehrhart=order-polynomial": 52,
    "order-polytope/volume=extensions": 13,
    "subdivision/cell-pairing": 11,
    "subdivision/volume-conservation": 22,
}
