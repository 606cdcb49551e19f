"""Seeded randomized property suites shared by the test and acceptance runs.

Each suite returns a list of violation descriptions; passing means the
list is empty. The isometry corpus is generated deterministically from
compositions of norm +-2 reflections on fixed block lattices.
"""

from __future__ import annotations

import random
from fractions import Fraction

from salemlat.intpoly import count_roots_outside_unit_circle
from salemlat.isometry import (
    MixedSpectrum,
    SalemType,
    char_poly,
    classify_isometry,
    entropy,
    express_in_powers,
    is_primary_charpoly,
    order,
)
from salemlat.lattice import (
    GramLattice,
    diagonal_lattice,
    direct_sum,
    e8_minus_one,
    hyperbolic_plane,
    signature,
)

from oracles import evaluate_in_powers, random_isometries

U = hyperbolic_plane()
A2_POS = GramLattice.from_rows([[2, 1], [1, 2]])
A2_NEG = GramLattice.from_rows([[-2, 1], [1, -2]])

# signature (1, 0, m): the hyperbolic-cone side of the eigenvalue bound
HYPERBOLIC_LATTICES = [
    U,
    direct_sum(U, diagonal_lattice([-2])),
    direct_sum(U, A2_NEG),
    direct_sum(U, diagonal_lattice([-2, -2, -2])),
    direct_sum(U, e8_minus_one()),
]

# signature (2, 0, t) with odd rank: the two-positive-directions side
TWO_POSITIVE_LATTICES = [
    direct_sum(A2_POS, diagonal_lattice([-2])),
    direct_sum(U, U, diagonal_lattice([-2])),
    direct_sum(A2_POS, diagonal_lattice([-2, -2, -2])),
    direct_sum(U, U, diagonal_lattice([-2, -2, -2])),
]


def _corpus(lattices, count, seed):
    rng = random.Random(seed)
    per = count // len(lattices)
    extra = count - per * len(lattices)
    out = []
    for i, lat in enumerate(lattices):
        n = per + (1 if i < extra else 0)
        out.extend(random_isometries(lat, n, rng.randrange(2**30)))
    return out


def suite_eigenvalue_bound(seed: int, count: int = 1000) -> list[str]:
    """At most one eigenvalue outside the unit circle on (1, 0, m) lattices."""
    for lat in HYPERBOLIC_LATTICES:
        assert tuple(signature(lat))[:2] == (1, 0)
    violations = []
    for g in _corpus(HYPERBOLIC_LATTICES, count, seed):
        outside = count_roots_outside_unit_circle(char_poly(g))
        if outside > 1:
            violations.append(f"{outside} roots outside on {g.matrix}")
    return violations


def suite_salem_dichotomy(seed: int, count: int = 1000) -> list[str]:
    """No mixed spectrum under primary characteristic polynomial and
    infinite order, on two-positive-direction lattices."""
    for lat in TWO_POSITIVE_LATTICES:
        assert tuple(signature(lat))[:2] == (2, 0)
    violations = []
    for g in _corpus(TWO_POSITIVE_LATTICES, count, seed):
        if is_primary_charpoly(g) and order(g) is None:
            if isinstance(classify_isometry(g), MixedSpectrum):
                violations.append(f"mixed primary infinite on {g.matrix}")
    return violations


def suite_salem_determinant(seed: int, count: int = 1000):
    """Every Salem-classified instance has determinant +1."""
    violations = []
    salem_count = 0
    corpus = _corpus(HYPERBOLIC_LATTICES, count // 2, seed)
    corpus += _corpus(TWO_POSITIVE_LATTICES, count - count // 2, seed + 1)
    for g in corpus:
        out = classify_isometry(g)
        if isinstance(out, SalemType):
            salem_count += 1
            if out.determinant != 1 or g.determinant() != 1:
                violations.append(f"salem with det {g.determinant()}")
    return violations, salem_count


def _salem_pool(seed: int, pool_size: int = 24):
    """Distinct infinite-order isometries with irreducible characteristic
    polynomial, drawn from the reflection corpus."""
    pool = []
    seen = set()
    lattices = [diagonal_lattice([2, -4]),
                direct_sum(U, diagonal_lattice([-2])),
                U,
                direct_sum(U, diagonal_lattice([-2, -2]))]
    rng = random.Random(seed)
    while len(pool) < pool_size:
        lat = lattices[rng.randrange(len(lattices))]
        for g in random_isometries(lat, 10, rng.randrange(2**30)):
            if g.matrix in seen:
                continue
            if isinstance(classify_isometry(g), SalemType):
                seen.add(g.matrix)
                pool.append(g)
                if len(pool) >= pool_size:
                    break
    return pool


def suite_express_roundtrip(seed: int, count: int = 1000) -> list[str]:
    """phi(F) reproduces G exactly whenever express_in_powers succeeds."""
    pool = _salem_pool(seed)
    rng = random.Random(seed + 7)
    violations = []
    for _ in range(count):
        f = pool[rng.randrange(len(pool))]
        k = rng.randint(-3, 3)
        g = f.power(k)
        coeffs = express_in_powers(f, g)
        if coeffs is None:
            violations.append(f"no expression for power {k}")
            continue
        value = evaluate_in_powers(f, coeffs)
        target = tuple(tuple(Fraction(x) for x in row) for row in g.matrix)
        if value != target:
            violations.append(f"roundtrip failed for power {k}")
    return violations


def suite_entropy_power_rule(seed: int, count: int = 1000) -> list[str]:
    """entropy(g^k) encloses k * midpoint(entropy(g)) for k = 1, 2, 3."""
    pool = _salem_pool(seed + 13)
    rng = random.Random(seed + 13)
    precision = Fraction(1, 10**5)
    violations = []
    for _ in range(count):
        g = pool[rng.randrange(len(pool))]
        base = entropy(g, precision / 100)
        for k in (1, 2, 3):
            iv = entropy(g.power(k), precision)
            mid = k * base.midpoint
            if not (iv.lo <= mid <= iv.hi):
                violations.append(f"power rule failed at k={k}")
    return violations
