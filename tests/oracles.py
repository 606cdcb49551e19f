"""Independent oracles used to check the exact implementations.

Nothing here shares code paths with the package: Salem recognition goes
through high-precision numeric root isolation plus sympy factorization,
short-vector lists come from a naive box search and from a Fincke-Pohst
descent on a rational LDL^T, signatures and their witnesses from a
congruence reduction in fractions.Fraction, polynomial division and signs
from long division and Horner evaluation in fractions.Fraction, monic
interpolation from Lagrange's formula in fractions.Fraction, matrix
products from a dense sum over every entry, and matrix products, normal
forms, exact elimination, polynomial division, gcds, Sturm sequences,
real-root counts and signatures are cross-checked against sympy. The one
exception is the unfiltered Salem enumeration loop: it runs the package's
classify_salem on every candidate of the coefficient box, to check the
sign filter in front of it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, floor, isqrt, lcm

import mpmath
import sympy

from salemlat.intpoly import IntPolynomial
from salemlat.salem import SalemCertificate, classify_salem

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


def naive_vectors_of_norm(gram, target: int):
    """Brute-force box search, one vector per sign pair, sorted.

    For a positive definite G every x with x G x^T <= target satisfies
    x_i^2 <= target (G^-1)_ii, so the box with those sides, computed in
    Fractions, holds every solution.
    """
    n = len(gram)
    inverse = sympy_inverse(gram)
    sides = [isqrt(floor(target * inverse[i][i])) for i in range(n)]
    out = []
    for v in itertools.product(*(range(-r, r + 1) for r in sides)):
        if not any(v):
            continue
        first = next(c for c in v if c != 0)
        if first < 0:
            continue
        norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
        if norm == target:
            out.append(tuple(v))
    return sorted(out)


def _ldl(gram):
    """G = R^T D R with R unit upper triangular, for positive definite G."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    r = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        d[k] = a[k][k]
        if d[k] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(k + 1, n):
            r[k][j] = a[k][j] / d[k]
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] -= a[k][i] * a[k][j] / d[k]
                a[j][i] = a[i][j]
    return d, r


def fraction_vectors_of_norm(gram, target: int):
    """Fincke-Pohst with exact rational bounds on the LDL^T of a definite
    Gram matrix, negated if negative definite: all v with v G v^T = target,
    one per sign pair (first nonzero coordinate positive), sorted."""
    n = len(gram)
    try:
        d, r = _ldl(gram)
    except ValueError:
        # raises again unless the form is negative definite
        d, r = _ldl([[-x for x in row] for row in gram])
        target = -target
    if target <= 0:
        return []
    results = []
    x = [0] * n

    def descend(i: int, remaining: Fraction):
        if i < 0:
            if remaining == 0 and next(c for c in x if c) > 0:
                results.append(tuple(x))
            return
        s = sum(r[i][j] * x[j] for j in range(i + 1, n))
        # d_i (x_i + s)^2 <= remaining
        limit = remaining / d[i]
        root = isqrt(limit.numerator // limit.denominator)
        for xi in range(floor(-s - root), floor(-s + root) + 2):
            if (xi + s) * (xi + s) <= limit:
                x[i] = xi
                descend(i - 1, remaining - d[i] * (xi + s) * (xi + s))
        x[i] = 0

    descend(n - 1, Fraction(target))
    return sorted(results)


def lagrange_interpolate_monic(points, values) -> IntPolynomial | None:
    """Monic integer polynomial of degree len(points) through the points, or
    None when its coefficients are not integers (Lagrange in Fractions)."""
    # g = x^d + h with deg h < d; interpolate h
    d = len(points)
    coeffs = [Fraction(0)] * d
    for i in range(d):
        target = Fraction(values[i] - points[i] ** d)
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(d):
            if j == i:
                continue
            new = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k] -= c * points[j]
                new[k + 1] += c
            num = new
            denom *= points[i] - points[j]
        w = target / denom
        for k, c in enumerate(num):
            coeffs[k] += w * c
    if any(c.denominator != 1 for c in coeffs):
        return None
    return IntPolynomial.from_coeffs([c.numerator for c in coeffs] + [1])


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


def fraction_divmod(f: IntPolynomial, g: IntPolynomial):
    """Long division over Q in Fractions: (quotient, remainder) as ascending
    lists, the remainder without trailing zeros, the quotient of length
    max(len(f) - deg g, 0)."""
    rem = [Fraction(c) for c in f.coeffs]
    dn = g.degree
    quot = [Fraction(0)] * max(len(rem) - dn, 0)
    while len(rem) > dn:
        k = len(rem) - 1 - dn
        q = rem[-1] / g.leading
        quot[k] = q
        for j in range(dn):
            rem[j + k] -= q * g.coeffs[j]
        rem.pop()  # cancelled exactly
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def fraction_value(p: IntPolynomial, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def sympy_exact_quotient(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial | None:
    """f / g when g divides f over Q with an integral quotient, else None."""
    q, r = sympy.div(_sympy_poly(f, "QQ"), _sympy_poly(g, "QQ"))
    quot = _ascending_fractions(reversed(q.all_coeffs()))
    if not r.is_zero or any(c.denominator != 1 for c in quot):
        return None
    return IntPolynomial.from_coeffs(c.numerator for c in quot)


def sympy_sturm_sequence(p: IntPolynomial) -> list[list[Fraction]]:
    """sympy's Sturm sequence of p, ascending; its first term is p made monic."""
    return [_ascending_fractions(reversed(s.all_coeffs()))
            for s in sympy.sturm(_sympy_poly(p, "QQ"))]


def sympy_real_roots_between(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the open interval (lo, hi)."""
    a = sympy.Rational(lo.numerator, lo.denominator)
    b = sympy.Rational(hi.numerator, hi.denominator)
    return sum(1 for r in set(sympy.real_roots(_sympy_poly(p))) if a < r < b)


def sympy_is_squarefree(p: IntPolynomial) -> bool:
    return _sympy_poly(p).is_sqf


def sympy_real_root_count(p: IntPolynomial) -> int:
    return len(sympy.real_roots(_sympy_poly(p)))


def dense_mat_mul(a, b):
    """The product a b as a dense sum over every entry, zeros included."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def sympy_mat_mul(a, b):
    """The product a b of two nonempty matrices through sympy.Matrix."""
    prod = sympy.Matrix([list(r) for r in a]) * sympy.Matrix([list(r) for r in b])
    return tuple(tuple(int(c) for c in prod.row(i)) for i in range(prod.rows))


def sympy_row_lattice_basis(matrix):
    """A Z-basis of the row lattice of matrix: sympy's column Hermite
    normal form of the transpose, read back as rows."""
    from sympy.matrices.normalforms import hermite_normal_form as hnf

    h = hnf(sympy.Matrix([list(r) for r in matrix]).T)
    return [[int(c) for c in h.col(j)] for j in range(h.cols)]


def sympy_in_row_lattice(rows, basis) -> bool:
    """Whether every row is an integer combination of the basis rows."""
    if not basis:
        return not any(any(r) for r in rows)
    b = sympy.Matrix(basis).T
    for row in rows:
        try:
            sol, params = b.gauss_jordan_solve(sympy.Matrix(list(row)))
        except ValueError:
            return False
        if params or any(not c.is_integer for c in sol):
            return False
    return True


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


def signature_with_basis(lattice):
    """Exact diagonalization by congruence.

    Returns ((n_plus, n_zero, n_minus), diag, basis) where basis is a list
    of rational rows b_i with b_i G b_i^T = diag[i] and b_i G b_j^T = 0.
    The rows witness the sign counts exactly.
    """
    n = lattice.rank
    a = [[Fraction(x) for x in row] for row in lattice.gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def sym_add(dst: int, src: int, f: Fraction):
        # basis[dst] += f * basis[src], updating the form congruently
        for j in range(n):
            a[dst][j] += f * a[src][j]
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for j in range(n):
            basis[dst][j] += f * basis[src][j]

    def swap(i: int, j: int):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        basis[i], basis[j] = basis[j], basis[i]

    for k in range(n):
        # full pivoting on the diagonal of the trailing block
        piv = None
        best = None
        for i in range(k, n):
            v = abs(a[i][i])
            if v != 0 and (best is None or v > best):
                best = v
                piv = i
        if piv is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break  # trailing block is zero
            sym_add(off[0], off[1], Fraction(1))
            piv = off[0]
        if piv != k:
            swap(k, piv)
        for i in range(k + 1, n):
            if a[i][k] != 0:
                sym_add(i, k, -a[i][k] / a[k][k])
    diag = [a[i][i] for i in range(n)]
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    zero = n - plus - minus
    return (plus, zero, minus), diag, basis


def fraction_definiteness_witness(lattice, wanted_sign: int):
    """The first basis row of signature_with_basis whose diagonal entry has
    the wanted sign, scaled by the lcm of its denominators; None if none."""
    _, diag, basis = signature_with_basis(lattice)
    for d, row in zip(diag, basis):
        if (d > 0) - (d < 0) == wanted_sign:
            denom = lcm(*[x.denominator for x in row])
            vec = tuple(int(x * denom) for x in row)
            if wanted_sign == 0 and lattice.norm(vec) != 0:
                continue
            return vec
    return None


def descartes_signature(gram) -> tuple[int, int, int]:
    """(n_plus, n_zero, n_minus) from the sympy characteristic polynomial.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs is exact: the sign changes of the coefficients of p(x) count the
    positive roots and those of p(-x) the negative ones.
    """
    coeffs = sympy_charpoly(gram)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    plus = sign_changes(coeffs)
    minus = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return plus, len(gram) - plus - minus, minus


def unfiltered_enumerate_salem(degree: int, trace_min: int, trace_max: int,
                               precision: Fraction) -> list[SalemCertificate]:
    """Salem enumeration that classifies every candidate of the coefficient
    box, without the trace sign filter."""
    n = degree
    big = max(Fraction(2), Fraction(trace_max + (n - 2)))

    def sym_bound(j: int) -> int:
        val = Fraction(comb(n - 2, j))
        if j >= 1:
            val += (big + 1) * comb(n - 2, j - 1)
        if j >= 2:
            val += comb(n - 2, j - 2)
        return floor(val) + 1

    ranges = [range(-trace_max, -trace_min + 1)]
    for k in range(2, n // 2 + 1):
        b = sym_bound(n - k)
        ranges.append(range(-b, b + 1))
    found = []
    for free in itertools.product(*ranges):
        body = list(free) + list(reversed(free[:-1]))
        result = classify_salem(IntPolynomial.from_coeffs([1] + body + [1]), precision)
        if isinstance(result, SalemCertificate) and trace_min <= result.trace <= trace_max:
            found.append(result)
    found.sort(key=lambda c: c.polynomial.coeffs)
    return found
