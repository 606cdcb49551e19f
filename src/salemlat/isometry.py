"""Isometries of Gram lattices: verification, spectra, order, entropy.

The characteristic polynomial of an isometry is self-reciprocal up to
sign and has determinant +-1, which the classification exploits: the
cyclotomic part is split off by trial division, and what remains is
either empty (finite-order spectrum), a single Salem polynomial, or a
genuinely mixed spectrum reported with its irreducible factorization.

Each isometry keeps a sparse view of M - I. Verification reads it, and so
do the K3 readers of g(v) - v, which for a unipotent M touch a few dozen
entries instead of the whole matrix.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .intpoly import (
    IntPolynomial,
    SturmContext,
    cauchy_root_bound,
    count_real_roots,
    gcd_poly,
    is_irreducible_over_integers,
    is_reciprocal,
    monic_irreducible_factors,
    squarefree_decomposition,
    squarefree_part,
    strip_cyclotomic_factors,
    trace_polynomial,
)
from .lattice import GramLattice, SublatticeEmbedding
from .linalg import IntMatrix, IntVector, SparseRows, _nonzero_entries, _sparse_mul
from .rational import RationalInterval, interval_max
from .salem import SalemCertificate, _bisect_enclosure, _require_positive, classify_salem

DEFAULT_SEED = 1729


def suite_seed() -> int:
    """Seed for randomized property suites; SALEMLAT_SEED overrides."""
    return int(os.environ.get("SALEMLAT_SEED", DEFAULT_SEED))


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
        return tuple(tuple((j, x - (i == j)) for j, x in enumerate(row)
                           if x != (i == j)) for i, row in enumerate(self.matrix))

    def displacements(self, vectors) -> tuple[IntVector, ...]:
        """g(v) - v for each v, from the one sparse product (M - I) V^T."""
        rows = [[] for _ in range(self.rank)]   # V^T, by its nonzero entries
        for c, v in enumerate(vectors):
            for j, x in enumerate(v):
                if x:
                    rows[j].append((c, x))
        return linalg.transpose(_sparse_mul(self.moved, rows, len(vectors)))

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


def verify_isometry(matrix, lattice: GramLattice) -> LatticeIsometry:
    """Check M^T G M = G entry by entry and det M = +-1.

    With D = G (M - I) and G symmetric, M^T G M - G = D^T + D + (M - I)^T D,
    so the check is two products on M - I, nearly empty for a unipotent M,
    and the sparse rows of G, kept per lattice. The witness is the first
    (i, j), row by row, where M^T G M and G differ. For det G != 0 (also
    kept per lattice) the identity gives det(M)^2 = 1, so only a
    degenerate G needs the determinant of M.
    """
    m = linalg.freeze(matrix)
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"matrix must be {n} x {n}")
    g = LatticeIsometry(lattice, m)
    d = _sparse_mul(lattice.entries, g.moved, n)
    moved_t = [[] for _ in range(n)]
    for i, row in enumerate(g.moved):
        for j, x in row:
            moved_t[j].append((i, x))
    excess = _sparse_mul(moved_t, _nonzero_entries(d), n)
    for i in range(n):
        for j in range(n):
            if excess[i][j] + d[i][j] + d[j][i]:
                raise GramViolationError(i, j)
    if lattice.determinant() == 0:
        det = linalg.det_bareiss(m)
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
    phi = char_poly(g)
    remainder, cyclo = strip_cyclotomic_factors(phi)
    if remainder.degree == 0:
        return len(cyclo) == 1
    if cyclo:
        return False  # a cyclotomic factor and a non-cyclotomic one coexist
    parts = squarefree_decomposition(phi)
    return len(parts) == 1 and is_irreducible_over_integers(parts[0][0])


def has_simple_spectrum(g: LatticeIsometry) -> bool:
    phi = char_poly(g)
    return gcd_poly(phi, phi.derivative()).degree == 0


def _largest_real_root_above_one(p: IntPolynomial, precision: Fraction) -> RationalInterval | None:
    """Certified enclosure of the largest real root in (1, infinity), if any.

    q has leading and constant coefficients +-1 and no cyclotomic factor:
    its only possible rational roots, +-1, are roots of Phi_1 and Phi_2,
    so neither 1 nor any bisection midpoint is a root."""
    q = squarefree_part(p)
    sturm = SturmContext(q)
    hi = cauchy_root_bound(q)
    if sturm.count(1, hi) == 0:
        return None
    return _bisect_enclosure(-q if q.leading < 0 else q, Fraction(1), hi, precision, sturm)


def _mpf_to_fraction(x) -> Fraction:
    import mpmath

    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def _log_interval(x: RationalInterval, precision: Fraction) -> RationalInterval:
    """Outward-rounded rational enclosure of log on a positive interval.

    mpmath is imported here, at the first log, so that importing salemlat
    and every operation that takes no log skip its start-up time and memory.
    """
    import mpmath

    bits = max(64, int(precision.denominator.bit_length()) + 32)
    saved = mpmath.iv.prec
    try:
        mpmath.iv.prec = bits
        iv = mpmath.iv.mpf
        lo = mpmath.iv.log(iv(x.lo.numerator) / iv(x.lo.denominator))
        hi = mpmath.iv.log(iv(x.hi.numerator) / iv(x.hi.denominator))
        return RationalInterval(_mpf_to_fraction(lo.a), _mpf_to_fraction(hi.b))
    finally:
        mpmath.iv.prec = saved


DEFAULT_ENTROPY_PRECISION = Fraction(1, 10**6)


def entropy(g: LatticeIsometry,
            precision: Fraction = DEFAULT_ENTROPY_PRECISION) -> RationalInterval:
    """Certified enclosure of log(spectral radius).

    Exactly [0, 0] when every eigenvalue is a root of unity (the radius is
    1 even for infinite-order unipotent isometries). Otherwise the radius
    is the largest absolute value of a real eigenvalue; a spectrum whose
    radius is attained only at non-real eigenvalues is refused.
    """
    _require_positive(precision)
    phi = char_poly(g)
    remainder, _ = strip_cyclotomic_factors(phi)
    if remainder.degree == 0:
        return RationalInterval(Fraction(0), Fraction(0))
    if not is_reciprocal(remainder):
        raise UnsupportedSpectrumError("non-reciprocal non-cyclotomic part")
    for part, _ in squarefree_decomposition(remainder):
        t = trace_polynomial(part)
        if count_real_roots(t) != t.degree:
            raise UnsupportedSpectrumError(
                "spectral radius attained at non-real eigenvalues")
    root_precision = precision / 4
    while True:
        candidates = []
        for side in (remainder, remainder.mirror()):
            enclosure = _largest_real_root_above_one(side, root_precision)
            if enclosure is not None:
                candidates.append(enclosure)
        if not candidates:
            raise ArithmeticError("off-circle spectrum must have a real root beyond 1")
        radius = candidates[0]
        for other in candidates[1:]:
            radius = interval_max(radius, other)
        result = _log_interval(radius, precision)
        if result.width <= precision / 2:
            # pad outward so the true value keeps a precision/8 margin
            # from both endpoints; the width stays below the request
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
    if linalg.mat_mul(f.matrix, g.matrix) != linalg.mat_mul(g.matrix, f.matrix):
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


def evaluate_in_powers(f: LatticeIsometry, coeffs) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix phi(f) over Q for a rational coefficient vector."""
    n = f.rank
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = linalg.identity(n)
    for c in coeffs:
        for i in range(n):
            for j in range(n):
                acc[i][j] += Fraction(c) * power[i][j]
        power = linalg.mat_mul(f.matrix, power)
    return tuple(tuple(row) for row in acc)


def fixes_isotropic_ray(g: LatticeIsometry, v: IntVector) -> bool:
    """Exact g(v) = v for an isotropic v."""
    if g.lattice.norm(v) != 0:
        raise ValueError("vector is not isotropic")
    return g.apply(tuple(v)) == tuple(v)


def restrict_to_embedding(g: LatticeIsometry, emb: SublatticeEmbedding) -> LatticeIsometry:
    """Restriction of g to an invariant sublattice, in the embedding basis."""
    if emb.ambient != g.lattice:
        raise ValueError("embedding ambient differs from the isometry lattice")
    images = [g.apply(row) for row in emb.basis]
    cols = []
    bt = linalg.transpose(emb.basis)
    for img in images:
        sol = linalg.fraction_solve(bt, img)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("sublattice is not invariant under the isometry")
        cols.append([x.numerator for x in sol])
    matrix = linalg.transpose(linalg.freeze(cols))
    return verify_isometry(matrix, emb.induced_gram())


# ---------------------------------------------------------------------------
# reflection generators for the randomized property suites
# ---------------------------------------------------------------------------


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


def root_vectors(lattice: GramLattice, coefficient_bound: int = 2,
                 max_support: int = 3) -> list[IntVector]:
    """Norm +-2 vectors supported on few coordinates, one per sign pair.

    Full box enumeration is exponential in the rank; vectors of small
    support already generate a rich reflection pool on the block lattices
    used for the property suites.
    """
    import itertools as _it

    n = lattice.rank
    out = []
    seen = set()
    box = [c for c in range(-coefficient_bound, coefficient_bound + 1) if c != 0]
    for size in range(1, min(max_support, n) + 1):
        for support in _it.combinations(range(n), size):
            for vals in _it.product(box, repeat=size):
                v = [0] * n
                for idx, c in zip(support, vals):
                    v[idx] = c
                first = next(c for c in v if c != 0)
                if first < 0:
                    continue
                tv = tuple(v)
                if tv in seen:
                    continue
                seen.add(tv)
                if lattice.norm(tv) in (2, -2):
                    out.append(tv)
    return out


def random_isometries(lattice: GramLattice, count: int, seed: int,
                      max_reflections: int = 6) -> list[LatticeIsometry]:
    """Deterministic corpus of isometries: products of norm +-2 reflections."""
    rng = random.Random(seed)
    pool = root_vectors(lattice)
    if not pool:
        raise ValueError("lattice has no norm +-2 vectors in the sampling box")
    out = []
    for _ in range(count):
        k = rng.randint(1, max_reflections)
        g = identity_isometry(lattice)
        for _ in range(k):
            w = pool[rng.randrange(len(pool))]
            g = g.compose(reflection_in_vector(lattice, w))
        out.append(g)
    return out
