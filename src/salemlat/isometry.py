"""Isometries of Gram lattices: verification, spectra, order, entropy.

The characteristic polynomial of an isometry is self-reciprocal up to
sign and has determinant +-1, which the classification exploits: the
cyclotomic part is split off by trial division, and what remains is
either empty (finite-order spectrum), a single Salem polynomial, or a
genuinely mixed spectrum reported with its irreducible factorization.
Entropy bisects for the spectral radius on Sturm counts of the trace
polynomial, whose roots are lambda + 1/lambda.

Each isometry keeps a sparse view of M - I. One verification core builds
and checks an isometry from that view alone; verify_isometry is its dense
front. The K3 generators enter the core as their few dozen entries of
M - I, and the one K3 reader of g(v) - v reads the same view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .intpoly import (
    IntPolynomial,
    SturmContext,
    cauchy_root_bound,
    is_irreducible_over_integers,
    is_reciprocal,
    monic_irreducible_factors,
    squarefree_part,
    strip_cyclotomic_factors,
    trace_polynomial,
)
from .lattice import GramLattice
from .linalg import (
    IntMatrix,
    IntVector,
    SparseRows,
    _nonzero_entries,
    _sparse_mul,
    _sparse_transpose,
)
from .rational import RationalInterval, _log_nearest
from .salem import SalemCertificate, _bisect_enclosure, _require_positive, classify_salem

class GramViolationError(ValueError):
    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"gram product violated at basis pair ({i}, {j})")


class DeterminantError(ValueError):
    pass


class NonCommutingError(ValueError):
    pass


class ReducibleCharPolyError(ValueError):
    pass


class UnsupportedSpectrumError(ValueError):
    """Spectral radius is attained only at non-real eigenvalues."""


@dataclass(frozen=True)
class LatticeIsometry:
    """Integer matrix acting on column coordinate vectors of a lattice."""

    lattice: GramLattice
    matrix: IntMatrix

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def apply(self, v: IntVector) -> IntVector:
        return linalg.mat_vec(self.matrix, v)

    @cached_property
    def moved(self) -> SparseRows:
        """M - I as the (column, entry) pairs of each row, computed once.

        A unipotent generator of the K3 construction has about 21 nonzero
        entries here out of 484, so its readers never touch the dense M.
        """
        rows = [list(row) for row in self.matrix]
        for i, row in enumerate(rows):
            row[i] -= 1
        return _nonzero_entries(rows)

    @cached_property
    def _moved_t(self) -> SparseRows:
        """(M - I)^T by nonzero entries, computed once."""
        return _sparse_transpose(self.moved, self.rank)

    def compose(self, other: "LatticeIsometry") -> "LatticeIsometry":
        if self.lattice != other.lattice:
            raise ValueError("isometries act on different lattices")
        return LatticeIsometry(self.lattice, linalg.mat_mul(self.matrix, other.matrix))

    def power(self, k: int) -> "LatticeIsometry":
        return LatticeIsometry(self.lattice, linalg.mat_pow(self.matrix, k))

    def inverse(self) -> "LatticeIsometry":
        return LatticeIsometry(self.lattice, linalg.unimodular_inverse(self.matrix))

    def determinant(self) -> int:
        return linalg.det_bareiss(self.matrix)

    def is_identity(self) -> bool:
        return self.matrix == linalg.identity(self.rank)


def _commute(a: LatticeIsometry, b: LatticeIsometry) -> bool:
    """Whether ab = ba, from ab - ba = (a - I)(b - I) - (b - I)(a - I) on the
    sparse views of a - I and b - I, entry lists in column order; an
    extended K3 generator has about 21 nonzero entries there out of 484."""
    n = a.rank
    return _sparse_mul(a.moved, b.moved, n) == _sparse_mul(b.moved, a.moved, n)


def verify_isometry(matrix, lattice: GramLattice) -> LatticeIsometry:
    """Check M^T G M = G entry by entry and det M = +-1; see _verify_moved."""
    m = linalg.freeze(matrix)
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"matrix must be {n} x {n}")
    return _verify_moved(lattice, LatticeIsometry(lattice, m).moved)


def _verify_moved(lattice: GramLattice, moved: SparseRows) -> LatticeIsometry:
    """The isometry M of the lattice, from the rows of M - I by nonzero entries
    (columns ascending), after checking M^T G M = G and det M = +-1.

    With D = G (M - I) and G symmetric, M^T G M - G = M^T D + D^T, the one
    sparse product [M^T | I] [D; D^T], where the rows of M^T are those of
    (M - I)^T plus one unit entry each. Both products read only the nonzero
    entries of M - I, nearly empty for a unipotent M, and of G, kept per
    lattice. The witness is the first (i, j), row by row, where M^T G M and
    G differ: the first entry of the first row that has one. For det G != 0
    (also kept per lattice) the identity gives det(M)^2 = 1, so only a
    degenerate G needs the determinant of M.
    """
    n = lattice.rank
    matrix = [[0] * n for _ in range(n)]
    rows = [[(i, 1), (n + i, 1)] for i in range(n)]  # [M^T | I] by nonzero entries
    for i, row in enumerate(moved):
        matrix[i][i] = 1
        for j, x in row:
            matrix[i][j] += x
            rows[j].append((i, x))
    g = LatticeIsometry(lattice, tuple(map(tuple, matrix)))
    g.__dict__["moved"] = moved  # the cached view, so nothing rescans the matrix
    d = _sparse_mul(lattice.entries, moved, n)
    stacked = d + _sparse_transpose(d, n)
    differs = _sparse_mul(rows, stacked, n, any)
    if True in differs:
        i = differs.index(True)
        raise GramViolationError(i, _sparse_mul(rows[i:i + 1], stacked, n)[0][0][0])
    if lattice.determinant() == 0:
        det = linalg.det_bareiss(g.matrix)
        if det not in (1, -1):
            raise DeterminantError(f"determinant {det} is not a unit")
    return g


def identity_isometry(lattice: GramLattice) -> LatticeIsometry:
    return LatticeIsometry(lattice, linalg.identity(lattice.rank))


def char_poly(g: LatticeIsometry) -> IntPolynomial:
    """det(tI - M), exact."""
    return IntPolynomial.from_coeffs(linalg.charpoly_coeffs(g.matrix))


def _finite_order(g: LatticeIsometry, cyclo) -> int | None:
    """order(g) from the cyclotomic split `cyclo` of an all-cyclotomic
    characteristic polynomial: one matrix power at the lcm."""
    k = lcm(*[n for n, _ in cyclo])
    return k if linalg.mat_pow(g.matrix, k) == linalg.identity(g.rank) else None


def order(g: LatticeIsometry) -> int | None:
    """Exact multiplicative order; None for infinite order.

    A non-cyclotomic factor of the characteristic polynomial forces
    infinite order. Otherwise each Phi_n dividing it gives an eigenvalue of
    exact order n, so every n present divides any finite order of g, and
    their lcm L is the only candidate: ord(g) = L as soon as g^L = I, and
    one matrix power decides. g^L != I exposes a non-semisimple
    (unipotent-type) isometry, which has infinite order.
    """
    remainder, cyclo = strip_cyclotomic_factors(char_poly(g))
    return _finite_order(g, cyclo) if remainder.degree == 0 else None


@dataclass(frozen=True)
class FiniteOrder:
    """Every eigenvalue is a root of unity; order is None when the
    isometry is quasi-unipotent of infinite order."""

    order: int | None


@dataclass(frozen=True)
class SalemType:
    certificate: SalemCertificate
    determinant: int


@dataclass(frozen=True)
class MixedSpectrum:
    factors: tuple[IntPolynomial, ...]


IsometryClassification = FiniteOrder | SalemType | MixedSpectrum


def classify_isometry(g: LatticeIsometry) -> IsometryClassification:
    """Trichotomy on the characteristic polynomial.

    FiniteOrder when it is a product of cyclotomics, SalemType when it is
    itself a Salem polynomial, MixedSpectrum otherwise together with the
    irreducible factors (repeated according to multiplicity, sorted by
    degree and coefficients). The order of a FiniteOrder comes from the
    same cyclotomic split, with one matrix power.
    """
    phi = char_poly(g)
    remainder, cyclo = strip_cyclotomic_factors(phi)
    if remainder.degree == 0:
        return FiniteOrder(order=_finite_order(g, cyclo))
    if not cyclo:
        cert = classify_salem(phi) if phi.degree >= 2 else None
        if isinstance(cert, SalemCertificate):
            det = g.determinant()
            if det != 1:
                raise ArithmeticError("a Salem characteristic polynomial forces det +1")
            return SalemType(certificate=cert, determinant=det)
    factors: list[IntPolynomial] = []
    for f, mult in monic_irreducible_factors(phi):
        factors.extend([f] * mult)
    return MixedSpectrum(factors=tuple(factors))


def is_primary_charpoly(g: LatticeIsometry) -> bool:
    """True iff the characteristic polynomial is f^m with f irreducible."""
    return len(monic_irreducible_factors(char_poly(g))) == 1


def has_simple_spectrum(g: LatticeIsometry) -> bool:
    return SturmContext(char_poly(g)).squarefree


DEFAULT_ENTROPY_PRECISION = Fraction(1, 10**6)


def entropy(g: LatticeIsometry,
            precision: Fraction = DEFAULT_ENTROPY_PRECISION) -> RationalInterval:
    """Certified enclosure of log(spectral radius).

    Exactly [0, 0] when every eigenvalue is a root of unity (the radius is
    1 even for infinite-order unipotent isometries). Otherwise the radius
    is the largest absolute value of a real eigenvalue, and any non-real
    eigenvalue off the unit circle is refused, with the message "spectral
    radius attained at non-real eigenvalues". That message is exact when
    min(n_plus, n_minus) <= 2, since a real pair off the circle spans a
    (1, 1) block and a non-real quadruple a (2, 2) block; beyond that a
    real radius beside a non-real quadruple is refused as well.

    Both the refusal and the radius are read off one Sturm chain of the
    trace polynomial t of the squarefree remainder, of half its degree,
    whose roots are lambda + 1/lambda: a non-real root of t is refused, and
    the radius exceeds x > 1 exactly when a root of t lies outside
    (-(x + 1/x), x + 1/x), which decides each step of the bisection.

    The log y of each end of the radius enclosure is rounded to nearest at
    b = max(53, bits of the precision's denominator + 32) bits. It is off
    by at most half an ulp, |y| 2^-b <= |y| 2^-32 precision, so the pad of
    precision/8 covers it whenever |y| < 2^29, that is for every radius
    below e^(2^29).
    """
    _require_positive(precision)
    remainder, _ = strip_cyclotomic_factors(char_poly(g))
    if remainder.degree == 0:
        return RationalInterval(Fraction(0), Fraction(0))
    if not is_reciprocal(remainder):
        raise UnsupportedSpectrumError("non-reciprocal non-cyclotomic part")
    q = squarefree_part(remainder)
    t = trace_polynomial(q)  # squarefree, since q has no root +-1
    s = t.degree
    sturm = SturmContext(t)
    if sturm.variations(-1, 0) - sturm.variations(1, 0) != s:  # signs at -+infinity
        raise UnsupportedSpectrumError(
            "spectral radius attained at non-real eigenvalues")

    def value_at(m: int, d: int) -> int:
        # the radius exceeds x = m/d > 1 exactly when some trace root lies
        # outside (-y, y), y = x + 1/x = (m^2 + d^2)/(md): negative then, else 1
        y, md = m * m + d * d, m * d
        return sturm.variations(-y, md) - sturm.variations(y, md) - s or 1

    bits = max(53, precision.denominator.bit_length() + 32)
    radius = RationalInterval(Fraction(1), cauchy_root_bound(q))
    root_precision = precision / 4
    while True:
        # continue from the held bracket, which a restart from [1, B] passes
        radius = _bisect_enclosure(value_at, radius.lo, radius.hi, root_precision)
        result = RationalInterval(_log_nearest(radius.lo, bits), _log_nearest(radius.hi, bits))
        if result.width <= precision / 2:
            # pad outward by precision/8, which covers the half ulp of
            # each rounded end; the width stays below the request
            pad = precision / 8
            return RationalInterval(result.lo - pad, result.hi + pad)
        root_precision /= 16


def express_in_powers(f: LatticeIsometry, g: LatticeIsometry) -> tuple[Fraction, ...] | None:
    """Coefficients of the unique rational phi with g = phi(f), degree < rank.

    Requires commuting isometries and an irreducible characteristic
    polynomial for f, under which the powers I, f, ..., f^{n-1} span the
    commutant.
    """
    if f.lattice != g.lattice:
        raise ValueError("isometries act on different lattices")
    if not _commute(f, g):
        raise NonCommutingError("matrices do not commute")
    phi = char_poly(f)
    if not is_irreducible_over_integers(phi):
        raise ReducibleCharPolyError("characteristic polynomial of f is reducible")
    n = f.rank
    powers = [linalg.identity(n)]
    for _ in range(n - 1):
        powers.append(linalg.mat_mul(f.matrix, powers[-1]))
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            rows.append([powers[k][i][j] for k in range(n)])
            rhs.append(g.matrix[i][j])
    sol = linalg.fraction_solve(rows, rhs)
    if sol is None:
        return None
    return tuple(sol)


def fixes_isotropic_ray(g: LatticeIsometry, v: IntVector) -> bool:
    """Exact g(v) = v for an isotropic v."""
    if g.lattice.norm(v) != 0:
        raise ValueError("vector is not isotropic")
    return g.apply(tuple(v)) == tuple(v)


def reflection_in_vector(lattice: GramLattice, w: IntVector) -> LatticeIsometry:
    """s_w(x) = x - 2 (x, w) / (w, w) * w, integral whenever (w, w) = +-2."""
    norm = lattice.norm(w)
    if norm not in (2, -2):
        raise ValueError("reflection vectors must have norm +-2 here")
    gw = linalg.mat_vec(lattice.gram, w)
    sign = 2 // norm  # +1 or -1
    n = lattice.rank
    matrix = [[(1 if i == j else 0) - sign * w[i] * gw[j] for j in range(n)]
              for i in range(n)]
    return verify_isometry(matrix, lattice)
