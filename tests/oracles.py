"""Independent oracles used to check the exact implementations.

Nothing here shares code paths with the package: Salem recognition goes
through high-precision numeric root isolation plus sympy factorization,
short-vector lists come from a naive box search, and normal forms,
exact elimination, polynomial division, gcds and real-root counts are
cross-checked against sympy.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath
import sympy

from salemlat.intpoly import IntPolynomial

ORACLE_DPS = 60
CIRCLE_TOL = mpmath.mpf(10) ** -12


def numeric_salem_oracle(p: IntPolynomial):
    """(is_salem, alpha or None) at 1e-12 tolerance, 60 working digits."""
    x = sympy.symbols("x")
    expr = sum(int(c) * x**i for i, c in enumerate(p.coeffs))
    poly = sympy.Poly(expr, x)
    if not poly.is_irreducible:
        return False, None
    with mpmath.workdps(ORACLE_DPS):
        roots = mpmath.polyroots([int(c) for c in reversed(p.coeffs)],
                                 maxsteps=200, extraprec=200)
        outside = [r for r in roots if abs(r) > 1 + CIRCLE_TOL]
        inside = [r for r in roots if abs(r) < 1 - CIRCLE_TOL]
        on_circle = [r for r in roots
                     if abs(abs(r) - 1) <= CIRCLE_TOL]
        if len(outside) != 1 or len(inside) != 1:
            return False, None
        if len(on_circle) != len(roots) - 2:
            return False, None
        alpha = outside[0]
        if abs(mpmath.im(alpha)) > CIRCLE_TOL or mpmath.re(alpha) <= 1:
            return False, None
        return True, mpmath.re(alpha)


def naive_vectors_of_norm(gram, target: int, box: int):
    """Brute-force box search, one vector per sign pair, sorted."""
    n = len(gram)
    out = []
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if not any(v):
            continue
        first = next(c for c in v if c != 0)
        if first < 0:
            continue
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm == target:
            out.append(tuple(v))
    return sorted(out)


def sympy_invariant_factors(m) -> list[int]:
    from sympy.matrices.normalforms import smith_normal_form as snf

    mat = snf(sympy.Matrix([list(r) for r in m]), domain=sympy.ZZ)
    k = min(mat.shape)
    return [abs(int(mat[i, i])) for i in range(k)]


def sympy_factor_multiset(p: IntPolynomial):
    x = sympy.symbols("x")
    expr = sum(int(c) * x**i for i, c in enumerate(p.coeffs))
    _, factors = sympy.Poly(expr, x).factor_list()
    out = []
    for f, mult in factors:
        coeffs = [int(c) for c in reversed(f.all_coeffs())]
        out.append((tuple(coeffs), mult))
    return sorted(out)


def sympy_charpoly(matrix) -> list[int]:
    m = sympy.Matrix([list(r) for r in matrix])
    return [int(c) for c in reversed(m.charpoly().all_coeffs())]


def divides_x_power_minus_one(p: IntPolynomial, k_bound: int) -> bool:
    """Cross-check route for cyclotomic products: p | x^k - 1, some k."""
    for k in range(1, k_bound + 1):
        xk = IntPolynomial.from_coeffs([-1] + [0] * (k - 1) + [1])
        if p.divides(xk):
            return True
    return False


def _fraction(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def _ascending_fractions(values) -> list[Fraction]:
    out = [_fraction(c) for c in values]
    while out and out[-1] == 0:
        out.pop()
    return out


def _sympy_poly(p: IntPolynomial, domain: str = "ZZ") -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), sympy.symbols("x"), domain=domain)


def sympy_divmod(f: IntPolynomial, g: IntPolynomial):
    """(quotient, remainder) over Q as ascending Fraction lists, no trailing zeros."""
    q, r = sympy.div(_sympy_poly(f, "QQ"), _sympy_poly(g, "QQ"))
    return (_ascending_fractions(reversed(q.all_coeffs())),
            _ascending_fractions(reversed(r.all_coeffs())))


def sympy_primitive_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd over Q scaled to a primitive integer polynomial, positive leading term."""
    _, h = sympy.gcd(_sympy_poly(f), _sympy_poly(g)).primitive()
    coeffs = [int(c) for c in reversed(h.all_coeffs())]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return IntPolynomial.from_coeffs(coeffs)


def sympy_is_squarefree(p: IntPolynomial) -> bool:
    return _sympy_poly(p).is_sqf


def sympy_real_root_count(p: IntPolynomial) -> int:
    return len(sympy.real_roots(_sympy_poly(p)))


def sympy_rank(matrix) -> int:
    return sympy.Matrix([list(r) for r in matrix]).rank()


def sympy_det(matrix) -> int:
    return int(sympy.Matrix([list(r) for r in matrix]).det())


def sympy_adjugate(matrix):
    adj = sympy.Matrix([list(r) for r in matrix]).adjugate()
    return tuple(tuple(int(c) for c in adj.row(i)) for i in range(adj.rows))


def sympy_inverse(matrix):
    """Exact inverse as a tuple of Fraction rows; None when singular."""
    m = sympy.Matrix([list(r) for r in matrix])
    if m.det() == 0:
        return None
    inv = m.inv()
    return tuple(tuple(_fraction(c) for c in inv.row(i)) for i in range(inv.rows))


def sympy_solve(matrix, rhs) -> list[Fraction] | None:
    """A solution of matrix x = rhs with every free parameter 0; None if inconsistent."""
    try:
        sol, params = sympy.Matrix([list(r) for r in matrix]).gauss_jordan_solve(
            sympy.Matrix(list(rhs)))
    except ValueError:
        return None
    sol = sol.subs({t: 0 for t in params})
    return [_fraction(c) for c in sol]
