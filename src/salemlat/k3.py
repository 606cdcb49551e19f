"""Rank-19 parabolic construction inside the K3 lattice.

From eighteen distinct primes this module builds the sublattices

    Nbar = <e1 - p f1> + <e2 - q f2> + <e1 - p_j v_1j> + <e2 - q_j v_2j>,
    N    = Z e0 + Nbar,     L = U + Nbar,     T = N^perp = Z e0 + Tbar,

inside Lambda = U^3 + E8(-1)^2, verifies every structural claim exactly
(rank, trichotomy class, primitivity, absence of norm -2 vectors,
definiteness of the blocks), constructs eighteen commuting isometries of
Lambda fixing T pointwise, and certifies that they generate a free
abelian group of rank 18 through an explicit coordinate homomorphism.
What the extension stage derives from L, the inverse of its Gram matrix
and the orthogonal projection onto L, is kept by the lattice and the
embedding objects, made once per object, so run_k3 calls build_phi,
extension_order and extend_to_lambda exactly as any other caller does.

The generators sharing e1 (resp. e2) pair nontrivially, so definiteness
of Nbar genuinely depends on the prime selection; it is verified per run
and a failure is reported with an explicit witness vector. The e1-block
and the e2-block pair to zero, so the lattices split into orthogonal
summands, N = Z e0 + 9 + 9, Nbar = 9 + 9 and L = U + 9 + 9, and every
lattice kernel runs per summand. The extension stage reads only the
nonzero entries of each g - I, about 21 of 484, and never a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import linalg
from .intpoly import MILLER_RABIN_BOUND, _is_probable_prime
from .isometry import (
    DeterminantError,
    GramViolationError,
    LatticeIsometry,
    verify_isometry,
)
from .lattice import (
    GramLattice,
    SublatticeEmbedding,
    _signature_and_witnesses,
    direct_sum,
    e8_minus_one,
    hyperbolic_plane,
    index_of_sum,
    is_primitive,
    orthogonal_complement,
    represents,
    saturation,
    signature,
)
from .linalg import IntMatrix, IntVector, _sparse_mul
from .parabolic import abelian_rank_of_image


class NonIntegralExtensionError(ValueError):
    pass


class BoundExceededError(ValueError):
    pass


class ShapeViolationError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeSelection:
    p: int
    q: int
    p_list: tuple[int, ...]
    q_list: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.p_list) != 8 or len(self.q_list) != 8:
            raise ValueError("p_list and q_list must each hold 8 primes")
        everyone = (self.p, self.q, *self.p_list, *self.q_list)
        for x in everyone:
            if x >= MILLER_RABIN_BOUND:
                raise ValueError(
                    f"{x} is too large to certify as prime (limit {MILLER_RABIN_BOUND})")
            if not _is_probable_prime(x):
                raise ValueError(f"{x} is not prime")
        if len(set(everyone)) != 18:
            raise ValueError("the 18 primes must be pairwise distinct")

    @staticmethod
    def from_dict(data: dict) -> "PrimeSelection":
        return PrimeSelection(
            p=int(data["p"]),
            q=int(data["q"]),
            p_list=tuple(int(x) for x in data["p_list"]),
            q_list=tuple(int(x) for x in data["q_list"]),
        )


# The scaling primes must be large enough that the e1-block (resp.
# e2-block) stays negative definite despite the cross pairings: with
# C the positive definite E8 form, the exact condition is
#   sum_{j,k} (C^-1)_{jk} / (p_j p_k) < 2 / p,
# and the all-entries sum of C^-1 is 620, so scaling primes >= 29 settle
# the p = 2 block and >= 61 the q = 3 block regardless of ordering.
DEFAULT_PRIMES = PrimeSelection(
    p=2,
    q=3,
    p_list=(29, 31, 37, 41, 43, 47, 53, 59),
    q_list=(61, 67, 71, 73, 79, 83, 89, 97),
)

_RANK = 22
_E0, _F0, _E1, _F1, _E2, _F2 = range(6)
_V1 = 6   # v_11 ... v_18 at indices 6..13
_V2 = 14  # v_21 ... v_28 at indices 14..21


@lru_cache(maxsize=1)
def k3_lattice() -> GramLattice:
    """U + U + U + E8(-1) + E8(-1), basis e0,f0,e1,f1,e2,f2,v_1j,v_2j."""
    return direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane(),
                      e8_minus_one(), e8_minus_one())


def _unit(i: int) -> IntVector:
    return tuple(1 if j == i else 0 for j in range(_RANK))


@dataclass(frozen=True)
class K3Sublattices:
    primes: PrimeSelection
    ambient: GramLattice
    nbar: SublatticeEmbedding
    n: SublatticeEmbedding
    l: SublatticeEmbedding
    t: SublatticeEmbedding
    tbar: SublatticeEmbedding

    @property
    def w_rows(self) -> IntMatrix:
        return self.nbar.basis

    @property
    def e0(self) -> IntVector:
        return _unit(_E0)

    @property
    def t_split(self) -> SublatticeEmbedding:
        """T in the basis e0 followed by the basis of Tbar."""
        return SublatticeEmbedding.from_rows(self.ambient, (self.e0, *self.tbar.basis))


def build_sublattices(primes: PrimeSelection) -> K3Sublattices:
    ambient = k3_lattice()

    def minus(i: int, c: int, j: int) -> list[int]:
        # the row of b_i - c b_j
        v = [0] * _RANK
        v[i] = 1
        v[j] = -c
        return v

    rows = [minus(_E1, primes.p, _F1), minus(_E2, primes.q, _F2)]
    rows += [minus(_E1, pj, _V1 + j) for j, pj in enumerate(primes.p_list)]
    rows += [minus(_E2, qj, _V2 + j) for j, qj in enumerate(primes.q_list)]
    nbar = SublatticeEmbedding.from_rows(ambient, rows)
    n = SublatticeEmbedding.from_rows(ambient, [list(_unit(_E0))] + rows)
    l = SublatticeEmbedding.from_rows(
        ambient, [list(_unit(_E0)), list(_unit(_F0))] + rows)
    t = orthogonal_complement(n)
    # Tbar = L^perp = T meet f0^perp is spanned by the c T with (c T, f0) = 0,
    # a primitive basis since T and the kernel of that 1 x 3 row are
    coeffs = linalg.integer_kernel(
        (tuple(ambient.pairing(b, _unit(_F0)) for b in t.basis),))
    tbar = SublatticeEmbedding(
        ambient, linalg.hermite_normal_form(linalg.mat_mul(coeffs, t.basis)))
    return K3Sublattices(primes=primes, ambient=ambient, nbar=nbar, n=n, l=l,
                         t=t, tbar=tbar)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""


def verify_construction(primes: PrimeSelection) -> list[CheckResult]:
    """Exact verification of the structural claims for one prime selection."""
    return _structural_checks(build_sublattices(primes))


def _signature_check(name: str, lat: GramLattice, wanted: tuple[int, int, int],
                     witness_signs: tuple[int, ...] = ()) -> CheckResult:
    """Whether lat has the wanted signature, read off its kept congruence run.

    Only a mismatch with witness signs costs one augmented run; its witness
    is a vector of the first listed norm sign (+1, 0 or -1) that run finds.
    """
    sig = signature(lat)
    witness = None
    if sig != wanted and witness_signs:
        found = _signature_and_witnesses(lat)[1]
        witness = next((found[s] for s in witness_signs if s in found), None)
    return CheckResult(name, sig == wanted, witness=witness,
                       detail=f"signature {tuple(sig)}")


def _structural_checks(subs: K3Sublattices) -> list[CheckResult]:
    """The structural checks; each embedding keeps the Gram lattice they read.

    The signatures come from each lattice's kept congruence run; only a
    failed one of N, Nbar or Tbar adds an augmented run for its witness.
    Tbar's signature (2, 0, 0) sums to its rank, so it implies rank 2.
    """
    n_lat = subs.n.induced_gram()
    l_rank = subs.l.rank
    n_parabolic = _signature_check("n_parabolic", n_lat, (0, 1, n_lat.rank - 1), (1,))
    checks = [
        CheckResult("n_rank_19", subs.n.rank == 19, detail=f"rank {subs.n.rank}"),
        n_parabolic,
        _signature_check("nbar_elliptic_rank_18", subs.nbar.induced_gram(),
                         (0, 0, 18), (1, 0)),
        CheckResult("l_rank_20", l_rank == 20, detail=f"rank {l_rank}"),
        _signature_check("l_hyperbolic", subs.l.induced_gram(), (1, 0, l_rank - 1)),
        _signature_check("tbar_positive_definite_rank_2", subs.tbar.induced_gram(),
                         (2, 0, 0), (-1,)),
        CheckResult("n_primitive", is_primitive(subs.n)),
        CheckResult("l_primitive", is_primitive(subs.l)),
        CheckResult("t_splits_as_e0_plus_tbar", subs.t.spans_same(subs.t_split),
                    detail=f"rank T = {subs.t.rank}"),
    ]
    if not n_parabolic.passed:
        return checks + [CheckResult("n_does_not_represent_minus_two", False,
                                     detail="skipped: N is not parabolic")]
    has_minus_two, witness = represents(n_lat, -2)
    return checks + [CheckResult("n_does_not_represent_minus_two", not has_minus_two,
                                 witness=witness)]


# ---------------------------------------------------------------------------
# the eighteen isometries
# ---------------------------------------------------------------------------


def _check_u_block(l_lat: GramLattice) -> None:
    """ShapeViolationError unless the lattice is U + Q in basis (e0, f0, w...)."""
    g = l_lat.gram
    r = l_lat.rank
    if r < 3 or g[0][0] != 0 or g[1][1] != 0 or g[0][1] != 1:
        raise ShapeViolationError("lattice is not in U + Q basis order")
    for j in range(2, r):
        if g[0][j] != 0 or g[1][j] != 0:
            raise ShapeViolationError("U block is not orthogonal to the rest")


def build_phi(i: int, l_lat: GramLattice) -> LatticeIsometry:
    """The i-th unipotent isometry of L = U + Q (1-based i).

    e0 is fixed, w_i picks up m e0 with m = det Q, every other w_j is
    fixed, and f0 moves by gamma_i e0 + sum_k c_ik w_k where (c_ik) is
    minus the i-th row of the adjugate of Q and 2 gamma_i + (sum c w)^2 = 0.
    adj Q and det Q are read off the inverse that L keeps: U is its own
    inverse with det U = -1, so det G_L = -det Q and
    adj G_L = (-det Q) U + (-adj Q).
    """
    _check_u_block(l_lat)
    try:
        l_adj, l_det = l_lat._inverse
    except ValueError:
        raise ShapeViolationError("the block Q is degenerate") from None
    s = l_lat.rank - 2
    if not 1 <= i <= s:
        raise ValueError(f"index {i} out of range 1..{s}")
    m = -l_det
    c = [0] * s
    for k, x in l_adj[i + 1]:
        c[k - 2] = x
    # Q c = -det(Q) e_i since Q adj(Q) = det(Q) I, so (sum c w)^2 = -m c_i
    norm_c = -m * c[i - 1]
    if norm_c % 2:
        raise ArithmeticError("even lattice guarantees an integral gamma")
    gamma = -norm_c // 2
    r = s + 2
    cols = []
    cols.append([1] + [0] * (r - 1))                       # e0
    cols.append([gamma, 1] + c)                            # f0
    for j in range(s):                                     # w_{j+1}
        col = [0] * r
        col[2 + j] = 1
        if j == i - 1:
            col[0] = m
        cols.append(col)
    matrix = linalg.transpose(linalg.freeze(cols))
    return verify_isometry(matrix, l_lat)


def _commute(a: LatticeIsometry, b: LatticeIsometry) -> bool:
    """Whether ab = ba, read off the sparse views of a - I and b - I.

    ab - ba = (a - I)(b - I) - (b - I)(a - I). For the extended generators
    a - I has about 21 nonzero entries out of 484, so comparing the two
    sparse products of differences, entry lists in column order, is exact
    and far cheaper than ab against ba.
    """
    n = a.rank
    return _sparse_mul(a.moved, b.moved, n) == _sparse_mul(b.moved, a.moved, n)


def extension_order(phi: LatticeIsometry, l_lat: GramLattice) -> int:
    """Least k with phi^k acting as the identity on the dual quotient L*/L.

    phi^k is trivial on L*/L iff (phi^k - I) G^{-1} is an integer matrix,
    that is iff (phi^k - I) adj(G) vanishes modulo det G; adj(G) and det G
    are the inverse the lattice keeps. The search is capped at |L*/L|
    times the exponent of the group; going past |L*/L| already contradicts
    the expected bound and is reported. The cap comes off the same inverse:
    |L*/L| = |det G|, and the entries of adj(G) are the (n-1)-minors of G,
    whose gcd is the product of all invariant factors but the last, so the
    exponent is |det G| / gcd(adj G).
    """
    if phi.lattice != l_lat:
        raise ValueError("isometry does not act on the given lattice")
    adj, det = l_lat._inverse
    n = l_lat.rank
    power, k, cap = phi, 1, None
    while True:
        scaled = _sparse_mul(power.moved, adj, n)
        if all(x % det == 0 for row in scaled for _, x in row):
            return k
        if cap is None:  # only a search past k = 1 needs its cap
            order = abs(det)
            cap = order * (order // (gcd(*(x for row in adj for _, x in row)) or 1))
        if k >= cap:
            raise BoundExceededError(
                f"no power up to {cap} acts trivially on the discriminant group")
        power = power.compose(phi)
        k += 1


def extend_to_lambda(phi_power: LatticeIsometry,
                     l_emb: SublatticeEmbedding,
                     tbar_emb: SublatticeEmbedding) -> LatticeIsometry:
    """Unique ambient isometry restricting to phi_power on L, identity on Tbar.

    Tbar = L^perp and L + Tbar has finite index in the ambient lattice, so
    the block map extends uniquely over Q: x goes to x + B^T (Phi - I) c,
    where c = P x / det G_L are the coordinates in L of the orthogonal
    projection of x, with P = adj(G_L) B G the projection the embedding
    keeps. So M - I = B^T (Phi - I) P / det G_L with Phi = phi_power. The
    map fixes Tbar only because Tbar is orthogonal to L, which is checked
    on the small entries of Tbar G B^T. Integrality on the ambient basis is
    exactly the discriminant-triviality of phi_power; it holds iff det G_L
    divides every entry of B^T (Phi - I) P. Phi - I comes from the sparse
    view of phi_power - I and has about two nonzero columns for a
    unipotent generator.
    """
    ambient = l_emb.ambient
    if tbar_emb.ambient != ambient:
        raise ValueError("embeddings must share the ambient lattice")
    n = ambient.rank
    if l_emb.rank + tbar_emb.rank != n:
        raise ValueError("L + Tbar does not have full rank")
    if any(_sparse_mul(tbar_emb._pairing_rows, l_emb._lift, l_emb.rank)):
        raise ValueError("Tbar is not orthogonal to L")
    det = l_emb.induced_gram()._inverse[1]
    moved = _sparse_mul(phi_power.moved, l_emb._projection, n)
    scaled = _sparse_mul(l_emb._lift, moved, n)
    if any(x % det for row in scaled for _, x in row):
        raise NonIntegralExtensionError(
            "block map does not preserve the ambient lattice; "
            "the power does not act trivially on the discriminant group")
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(scaled):
        for j, x in row:
            matrix[i][j] += x // det
    return verify_isometry(matrix, ambient)


# ---------------------------------------------------------------------------
# the period point and its minimal primitive sublattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticAlgebraElement:
    """Element x0 + x1 r + x2 w + x3 r w with r^2 = 2, w^2 = -A."""

    a_param: int
    parts: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(a_param: int, x0=0, x1=0, x2=0, x3=0) -> "QuarticAlgebraElement":
        return QuarticAlgebraElement(
            a_param, (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)))

    def _check(self, other: "QuarticAlgebraElement"):
        if self.a_param != other.a_param:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        return QuarticAlgebraElement(
            self.a_param, tuple(x + y for x, y in zip(self.parts, other.parts)))

    def __sub__(self, other):
        self._check(other)
        return QuarticAlgebraElement(
            self.a_param, tuple(x - y for x, y in zip(self.parts, other.parts)))

    def __mul__(self, other):
        self._check(other)
        a = self.a_param
        x0, x1, x2, x3 = self.parts
        y0, y1, y2, y3 = other.parts
        return QuarticAlgebraElement(a, (
            x0 * y0 + 2 * x1 * y1 - a * x2 * y2 - 2 * a * x3 * y3,
            x0 * y1 + x1 * y0 - a * x2 * y3 - a * x3 * y2,
            x0 * y2 + x2 * y0 + 2 * x1 * y3 + 2 * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
        ))

    def scale(self, k: Fraction) -> "QuarticAlgebraElement":
        return QuarticAlgebraElement(
            self.a_param, tuple(Fraction(k) * x for x in self.parts))

    def conjugate(self) -> "QuarticAlgebraElement":
        """w -> -w, the complex conjugation of the algebra."""
        x0, x1, x2, x3 = self.parts
        return QuarticAlgebraElement(self.a_param, (x0, x1, -x2, -x3))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.parts)


@dataclass(frozen=True)
class PeriodPoint:
    """Coordinates of the period line generator in the basis of T."""

    a_param: int  # A = 4ac - b^2, the negated square of w
    coordinates: tuple[QuarticAlgebraElement, ...]


def _period_pairing(gram: IntMatrix, x: tuple[QuarticAlgebraElement, ...],
                    y: tuple[QuarticAlgebraElement, ...]) -> QuarticAlgebraElement:
    acc = QuarticAlgebraElement.of(x[0].a_param)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if gram[i][j]:
                acc = acc + (xi * yj).scale(gram[i][j])
    return acc


def period_point(tbar: GramLattice, t: GramLattice) -> PeriodPoint:
    """The exact period point sigma = sqrt(2) e0 + ((-b + w)/2a) u1 + u2.

    Requires Tbar positive definite of rank 2 with even diagonal and
    T = Z e0 + Tbar in that basis order. Both defining identities,
    (sigma, sigma) = 0 and (sigma, conj sigma) = A / a with A = 4ac - b^2,
    are verified exactly in the quartic algebra before returning.
    """
    if tbar.rank != 2 or signature(tbar) != (2, 0, 0):
        raise ShapeViolationError("Tbar must be positive definite of rank 2")
    if tbar.gram[0][0] % 2 or tbar.gram[1][1] % 2:
        raise ShapeViolationError("Tbar must be an even lattice")
    expected_t = (
        (0, 0, 0),
        (0, tbar.gram[0][0], tbar.gram[0][1]),
        (0, tbar.gram[1][0], tbar.gram[1][1]),
    )
    if t.gram != expected_t:
        raise ShapeViolationError("T must split as Z e0 + Tbar in basis order")
    a = tbar.gram[0][0] // 2
    b = tbar.gram[0][1]
    c = tbar.gram[1][1] // 2
    big_a = 4 * a * c - b * b
    coords = (
        QuarticAlgebraElement.of(big_a, x1=1),
        QuarticAlgebraElement.of(big_a, x0=Fraction(-b, 2 * a), x2=Fraction(1, 2 * a)),
        QuarticAlgebraElement.of(big_a, x0=1),
    )
    sigma_sq = _period_pairing(t.gram, coords, coords)
    if not sigma_sq.is_zero:
        raise ArithmeticError("period identity (sigma, sigma) = 0 failed")
    pairing = _period_pairing(t.gram, coords,
                              tuple(x.conjugate() for x in coords))
    if pairing.parts != (Fraction(big_a, a), Fraction(0), Fraction(0), Fraction(0)):
        raise ArithmeticError("period identity (sigma, conj sigma) = A/a failed")
    return PeriodPoint(a_param=big_a, coordinates=coords)


def _integral_components(sigma: PeriodPoint) -> list[list[int]]:
    """The nonzero component vectors of sigma over the basis 1, r, w, rw.

    Each is given in the basis of T and scaled to an integer vector by
    the lcm of its denominators.
    """
    rows = []
    for part in range(4):
        row = [x.parts[part] for x in sigma.coordinates]
        if any(row):
            denom = lcm(*[x.denominator for x in row])
            rows.append([x.numerator * (denom // x.denominator) for x in row])
    return rows


def minimal_primitive_sublattice(sigma: PeriodPoint,
                                 ambient: GramLattice) -> SublatticeEmbedding:
    """Saturation of the rational span of sigma's four component vectors.

    The component vectors over the basis 1, r, w, rw span the smallest
    rational subspace whose complexification contains sigma; the Galois
    conjugates of sigma land in the same span.
    """
    rank = ambient.rank
    if len(sigma.coordinates) != rank:
        raise ShapeViolationError("coordinate count must match the ambient rank")
    rows = _integral_components(sigma)
    if not rows:
        return SublatticeEmbedding.from_rows(ambient, [])
    hnf = linalg.hermite_normal_form(linalg.freeze(rows))
    return saturation(SublatticeEmbedding(ambient, hnf))


@dataclass(frozen=True)
class TorelliCertificate:
    """Lattice-side facts feeding the geometric realization argument."""

    fixes_t_pointwise: bool
    fixes_period: bool
    fixes_e0: bool

    @property
    def passed(self) -> bool:
        return self.fixes_t_pointwise and self.fixes_period and self.fixes_e0


def torelli_certificate(phi: LatticeIsometry, sigma: PeriodPoint,
                        t_emb: SublatticeEmbedding,
                        e0: IntVector) -> TorelliCertificate:
    # components of sigma in ambient coordinates transform under phi; a
    # nonzero integer multiple of a component is fixed iff the component is
    basis_t = linalg.transpose(t_emb.basis)
    components = [linalg.mat_vec(basis_t, row) for row in _integral_components(sigma)]
    k = t_emb.rank
    fixed = [not any(d) for d in phi.displacements((*t_emb.basis, *components, e0))]
    return TorelliCertificate(
        fixes_t_pointwise=all(fixed[:k]),
        fixes_period=all(fixed[k:-1]),
        fixes_e0=fixed[-1],
    )


# ---------------------------------------------------------------------------
# the coordinate homomorphism and the group rank
# ---------------------------------------------------------------------------


def alpha_map(g: LatticeIsometry, subs: K3Sublattices) -> tuple[int, ...]:
    """(m_1, ..., m_18) with g(w_i) = w_i + m_i e0.

    Verifies the structural facts first: g fixes e0, fixes Tbar pointwise,
    and moves each w_i by a multiple of e0.
    """
    if g.lattice != subs.ambient:
        raise ShapeViolationError("isometry does not act on the ambient lattice")
    e0_diff, *diffs = g.displacements((subs.e0, *subs.tbar.basis, *subs.w_rows))
    if any(e0_diff):
        raise ShapeViolationError("isometry does not fix e0")
    k = subs.tbar.rank
    if any(any(diff) for diff in diffs[:k]):
        raise ShapeViolationError("isometry does not fix Tbar pointwise")
    out = []
    for diff in diffs[k:]:
        if any(diff[:_E0]) or any(diff[_E0 + 1:]):
            raise ShapeViolationError("w image does not differ by a multiple of e0")
        out.append(diff[_E0])
    return tuple(out)


def group_rank_via_alpha(generators: list[LatticeIsometry],
                         subs: K3Sublattices) -> int:
    return abelian_rank_of_image([alpha_map(g, subs) for g in generators])


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class K3ConstructionReport:
    primes: PrimeSelection
    checks: tuple[CheckResult, ...]
    disc_order: int | None = None
    sum_index_l_tbar: int | None = None
    n_plus_t_corank: int | None = None
    tbar_gram: IntMatrix | None = None
    quartic_a: int | None = None
    extension_orders: tuple[int, ...] | None = None
    alpha_vectors: tuple[tuple[int, ...], ...] | None = None
    group_rank: int | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_k3(primes: PrimeSelection = DEFAULT_PRIMES,
           skip_extension: bool = False) -> K3ConstructionReport:
    """Build, verify, and certify the whole construction for one selection.

    disc_order = |L*/L| = |det G_L|, the last pivot of signature(L)'s
    congruence run; L is nondegenerate whenever the structural checks pass."""
    subs = build_sublattices(primes)
    checks = _structural_checks(subs)
    l_lat, tbar_lat = subs.l.induced_gram(), subs.tbar.induced_gram()
    structural_ok = all(c.passed for c in checks)

    report = K3ConstructionReport(primes=primes, checks=())
    if structural_ok:
        tbar_gram = tbar_lat.gram
        stacked = linalg.row_stack(subs.n.basis, subs.t.basis)
        report = replace(
            report,
            disc_order=abs(l_lat.determinant()),
            sum_index_l_tbar=index_of_sum(subs.l, subs.tbar),
            n_plus_t_corank=subs.ambient.rank - linalg.rational_rank(stacked),
            tbar_gram=tbar_gram,
            quartic_a=(tbar_gram[0][0] * tbar_gram[1][1]
                       - tbar_gram[0][1] * tbar_gram[0][1]))

    if skip_extension or not structural_ok:
        return replace(report, checks=tuple(checks))

    phis = []
    for i in range(1, 19):
        try:
            phis.append(build_phi(i, l_lat))
        except (GramViolationError, DeterminantError) as exc:
            checks.append(CheckResult(
                "phi_isometries_on_l", False,
                witness=getattr(exc, "witness", None), detail=f"phi_{i}: {exc}"))
            return replace(report, checks=tuple(checks))
    checks.append(CheckResult("phi_isometries_on_l", True,
                              detail="all 18 verified"))
    orders = [extension_order(phi, l_lat) for phi in phis]
    big_phis = []
    extensions_ok = True
    for phi, k in zip(phis, orders):
        try:
            big_phis.append(extend_to_lambda(phi.power(k), subs.l, subs.tbar))
        except NonIntegralExtensionError:
            extensions_ok = False
            break
    checks.append(CheckResult("extensions_integral", extensions_ok))

    alpha_vectors = rank = None
    if extensions_ok:
        t_lat = subs.t.induced_gram()
        sigma = period_point(tbar_lat, t_lat)
        t_split = subs.t_split
        certs = [torelli_certificate(phi, sigma, t_split, subs.e0)
                 for phi in big_phis]
        fix_e0 = all(c.fixes_e0 for c in certs)
        fix_t = all(c.fixes_t_pointwise and c.fixes_period for c in certs)
        checks.append(CheckResult("phis_fix_e0", fix_e0))
        checks.append(CheckResult("phis_fix_t_pointwise", fix_t))
        commute = all(_commute(a, b)
                      for idx, a in enumerate(big_phis) for b in big_phis[idx + 1:])
        checks.append(CheckResult("phis_commute", commute))
        minimal = minimal_primitive_sublattice(sigma, t_lat)
        full = SublatticeEmbedding.from_rows(
            minimal.ambient, linalg.identity(3))
        checks.append(CheckResult(
            "period_minimal_sublattice_is_t", minimal.spans_same(full)))
        if fix_e0 and fix_t:  # what alpha_map needs of every generator
            alpha_vectors = tuple(alpha_map(g, subs) for g in big_phis)
            rank = abelian_rank_of_image(list(alpha_vectors))
            checks.append(CheckResult("alpha_rank_18", rank == 18,
                                      detail=f"rank {rank}"))
        else:
            checks.append(CheckResult(
                "alpha_rank_18", False,
                detail="skipped: the generators do not fix e0 and T pointwise"))

    all_ok = all(c.passed for c in checks)
    return replace(
        report,
        checks=tuple(checks),
        extension_orders=tuple(orders),
        alpha_vectors=alpha_vectors,
        group_rank=rank if all_ok else None,
    )
