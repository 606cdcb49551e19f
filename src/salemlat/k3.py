"""Rank-19 parabolic construction inside the K3 lattice.

From eighteen distinct primes this module builds the sublattices

    Nbar = <e1 - p f1> + <e2 - q f2> + <e1 - p_j v_1j> + <e2 - q_j v_2j>,
    N    = Z e0 + Nbar,     L = U + Nbar,     T = N^perp = Z e0 + Tbar,

inside Lambda = U^3 + E8(-1)^2, verifies every structural claim exactly
(rank, trichotomy class, primitivity, absence of norm -2 vectors,
definiteness of the blocks), constructs eighteen commuting isometries of
Lambda fixing T pointwise, and certifies that they generate a free
abelian group of rank 18 through an explicit coordinate homomorphism,
parabolic's unipotent coordinates on N = Z e0 + Nbar.
Each generator phi_i of L is the Eichler transvection E(e0, u_i), so
eichler_extension builds it on Lambda in closed form from u_i, read off
phi_i's f0 column, and keeps it only if it agrees with phi_i on L's basis
and fixes Tbar; no projection, order search or division runs.
Commutation is read off each generator's form (e0.e0 = 0 = e0.u_i), not
off products of pairs.

The generators sharing e1 (resp. e2) pair nontrivially, so definiteness
of Nbar genuinely depends on the prime selection; it is verified per run
and a failure is reported with an explicit witness vector. The e1-block
and the e2-block pair to zero, so the lattices split into orthogonal
summands, N = Z e0 + 9 + 9, Nbar = 9 + 9 and L = U + 9 + 9, and every
lattice kernel runs per summand. N and L are Nbar's embedding bordered by
e0, and by e0 and f0, so they and N's definite quotient hold Nbar's two
9-row parts, each reduced once per run. The extension stage reads only the
nonzero entries of each g - I, about 21 of 484; one product with rows made
once per run gives each generator's Torelli facts and alpha vector.
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
    _verify_moved,
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
from .parabolic import _radical_coefficients, abelian_rank_of_image
from .rational import json_fields, parse_int, parse_ints


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
        p, q, p_list, q_list = json_fields(data, "p", "q", "p_list", "q_list")
        return PrimeSelection(p=parse_int(p), q=parse_int(q),
                              p_list=parse_ints(p_list), q_list=parse_ints(q_list))


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
    # e0 and f0 pair to zero with Nbar, so N and L hold Nbar's summands
    n = nbar.bordered([_unit(_E0)])
    l = nbar.bordered([_unit(_E0), _unit(_F0)])
    t = orthogonal_complement(n)
    # Tbar = L^perp = T meet f0^perp is spanned by the c T with (c T, f0) = 0
    # (the f0 column of T G), a primitive basis as T and that kernel are
    coeffs = linalg.integer_kernel((tuple(dict(row).get(_F0, 0) for row in t._pairing_rows),))
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
    c = dict(l_adj[i + 1])  # c_ik at column k + 1, the coordinate of w_k
    # Q c = -det(Q) e_i since Q adj(Q) = det(Q) I, so (sum c w)^2 = -m c_i
    norm_c = -m * c.get(i + 1, 0)
    if norm_c % 2:
        raise ArithmeticError("even lattice guarantees an integral gamma")
    gamma = -norm_c // 2
    # M - I by rows: the f0 column (gamma, 0, c) and m at (e0, w_i)
    moved = [((1, gamma), (i + 1, m)) if gamma else ((i + 1, m),), ()]
    moved += [((1, c[k]),) if k in c else () for k in range(2, s + 2)]
    return _verify_moved(l_lat, tuple(moved))


def extension_order(phi: LatticeIsometry, l_lat: GramLattice) -> int:
    """Least k with phi^k acting as the identity on the dual quotient L*/L.

    phi^k is trivial on L*/L iff (phi^k - I) G^{-1} is an integer matrix,
    that is iff (phi^k - I) adj(G) vanishes modulo det G; adj(G) and det G
    are the inverse the lattice keeps. The search is capped at |L*/L|
    times the exponent of the group, read off the same inverse: |L*/L| =
    |det G|, and the entries of adj(G) are the (n-1)-minors of G, whose gcd
    is the product of all invariant factors but the last, so the exponent
    is |det G| / gcd(adj G).

    Each build_phi generator has order 1, so run_k3 needs no search: it is
    the Eichler transvection E(e0, u) with u in L, and for x in L*,
    (phi - I) x = (x.e0) u - (x.u) e0 - u^2/2 (x.e0) e0 lies in L, as L is even.
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
    unipotent generator. run_k3 no longer calls it: eichler_extension
    builds the same matrix for each build_phi generator in closed form.
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
    return _verify_moved(ambient, tuple(tuple((j, x // det) for j, x in row)
                                        for row in scaled))


def _transvection(lattice: GramLattice, e0, u):
    """The rows of E(e0, u) - I = u p^T - e0 (q + u^2/2 p)^T by nonzero entries,
    p = G e0 and q = G u, for e0 and u given by their nonzero entries; None
    unless e0.e0 = 0 = e0.u and u^2 is even, when E(e0, u) is an integral
    isometry. Only the rows of G on the supports of e0 and u are read."""
    n = lattice.rank
    p, q = _sparse_mul((e0, u), lattice.entries, n)
    at_p, at_q = dict(p), dict(q)
    half, odd = divmod(sum(x * at_q.get(j, 0) for j, x in u), 2)
    if odd or sum(x * at_p.get(j, 0) for j, x in e0) or sum(x * at_p.get(j, 0) for j, x in u):
        return None
    rows = [()] * n
    for j, x in u:
        rows[j] = tuple((k, x * y) for k, y in p)
    at_u = dict(u)
    for j, x in e0:  # u_j p - e0_j (q + half p)
        rows[j] = _sparse_mul((((0, at_u.get(j, 0) - x * half), (1, -x)),), (p, q), n)[0]
    return tuple(rows)


def eichler_extension(phi: LatticeIsometry, l_emb: SublatticeEmbedding,
                      tbar_emb: SublatticeEmbedding) -> LatticeIsometry:
    """The Eichler transvection E(e0, u) of the ambient lattice that restricts
    to phi on L and to the identity on Tbar, e0 and f0 the first two basis
    rows of L = U + Q (Eichler 1952; Oguiso, math/0312515).

    E(e0, u) x = x + (x.e0) u - (x.u) e0 - u^2/2 (x.e0) e0. u is phi's f0
    column lifted through L's basis B without its e0 part, which
    E(e0, u + t e0) = E(e0, u) makes canonical. M is checked as an isometry
    by the verification core and kept only if (M - I) B^T = B^T (Phi - I)
    and (M - I) Tbar^T = 0, else NonIntegralExtensionError: as L + Tbar has
    full rank, M is then the unique such extension, the matrix
    extend_to_lambda computes by projection.
    """
    ambient = l_emb.ambient
    if tbar_emb.ambient != ambient:
        raise ValueError("embeddings must share the ambient lattice")
    n, b_rows = ambient.rank, l_emb._rows
    u = _sparse_mul((tuple((k, x) for k, x in phi._moved_t[1] if k),), b_rows, n)[0]
    moved = _transvection(ambient, b_rows[0], u)
    g = None if moved is None else _verify_moved(ambient, moved)
    if g is None or (_sparse_mul(b_rows, g._moved_t, n) != _sparse_mul(phi._moved_t, b_rows, n)
                     or any(_sparse_mul(tbar_emb._rows, g._moved_t, n))):
        raise NonIntegralExtensionError(
            "phi's f0 column u gives no transvection E(e0, u) that restricts "
            "to phi on L and to the identity on Tbar")
    return g


def _commutation_failure(gens: list[LatticeIsometry]) -> str:
    """"" when the generators commute by their form, else "phi_i: ..." for the
    first whose M - I is not the closed form _transvection rebuilds from
    e0, the ambient basis row, and u, its own f0 column without its e0 part.

    With A = M - I = u p^T - e0 r^T, p = G e0 and r = G u + u^2/2 p, the
    identities e0.e0 = 0 = e0.u that _transvection requires give
    A_i A_j = -(u_i.u_j) e0 p^T, which is symmetric in i and j, so
    M_i M_j = I + A_i + A_j + A_i A_j = M_j M_i without a product.
    """
    e0 = ((_E0, 1),)
    for i, g in enumerate(gens, 1):
        u = tuple((j, x) for j, x in g._moved_t[_F0] if j != _E0)
        if _transvection(g.lattice, e0, u) != g.moved:
            return f"phi_{i}: not the transvection E(e0, u) of its f0 column u"
    return ""


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
    """Whether phi fixes T pointwise, the period sigma and e0. sigma's
    coordinates are taken in T's basis, so its components lie in T's rational
    span, and fixes_period is read as fixes_t_pointwise: no period row."""
    if len(sigma.coordinates) != t_emb.rank:
        raise ShapeViolationError("the period needs one coordinate per basis row of T")
    return _read(phi, _reading_rows(e0, (), t_emb), 1, t_emb.rank)[0]


def _reading_rows(e0: IntVector, w_rows, t_emb: SublatticeEmbedding):
    """(e0, w_1, ..., T's basis) in ambient coordinates by nonzero entries."""
    return linalg._nonzero_entries((e0, *w_rows, *t_emb.basis))


def _read(g: LatticeIsometry, rows, s: int, k: int):
    """g's TorelliCertificate and alpha vector (None unless g moves e0 and each
    w_i by multiples of e0), read off one product of rows = (e0, w_1, ..., w_{s-1},
    k rows of T) with the (M - I)^T that g keeps; fixes_period is fixes_t_pointwise."""
    moved = _sparse_mul(rows, g._moved_t, g.rank)
    fixes_t = not any(moved[s:s + k])
    cert = TorelliCertificate(fixes_t, fixes_t, not moved[0])
    coeffs = _radical_coefficients(moved[:s], rows[0])
    return cert, coeffs[1:] if len(coeffs) == s else None


def _alpha(cert: TorelliCertificate, alpha: tuple[int, ...] | None) -> tuple[int, ...]:
    """The alpha vector of a _read, after the checks alpha_map names."""
    if not cert.fixes_e0:
        raise ShapeViolationError("isometry does not fix e0")
    if not cert.fixes_t_pointwise:
        raise ShapeViolationError("isometry does not fix Tbar pointwise")
    if alpha is None:
        raise ShapeViolationError("w image does not differ by a multiple of e0")
    return alpha


# ---------------------------------------------------------------------------
# the coordinate homomorphism and the group rank
# ---------------------------------------------------------------------------


def alpha_map(g: LatticeIsometry, subs: K3Sublattices) -> tuple[int, ...]:
    """(m_1, ..., m_18) with g(w_i) = w_i + m_i e0, after checking that g
    fixes e0 and Tbar pointwise and moves each w_i by a multiple of e0.

    (e0, w_1, ..., w_18) completes N's radical e0 to a basis of N, so these
    are parabolic's unipotent coordinates on N, read as run_k3 reads them.
    """
    if g.lattice != subs.ambient:
        raise ShapeViolationError("isometry does not act on the ambient lattice")
    rows = _reading_rows(subs.e0, subs.w_rows, subs.tbar)
    return _alpha(*_read(g, rows, 19, subs.tbar.rank))


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

    disc_order = |L*/L| = |det G_L| and quartic_a = det Tbar = 4ac - b^2, each
    the product of the last pivots of the lattice's kept congruence runs; L is
    nondegenerate whenever the structural checks pass."""
    subs = build_sublattices(primes)
    checks = _structural_checks(subs)
    l_lat, tbar_lat = subs.l.induced_gram(), subs.tbar.induced_gram()
    structural_ok = all(c.passed for c in checks)

    report = K3ConstructionReport(primes=primes, checks=())
    if structural_ok:
        stacked = linalg.row_stack(subs.n.basis, subs.t.basis)
        report = replace(
            report,
            disc_order=abs(l_lat.determinant()),
            sum_index_l_tbar=index_of_sum(subs.l, subs.tbar),
            n_plus_t_corank=subs.ambient.rank - linalg.rational_rank(stacked),
            tbar_gram=tbar_lat.gram,
            quartic_a=tbar_lat.determinant())

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
    big_phis, failure = [], ""
    for i, phi in enumerate(phis, 1):
        try:
            big_phis.append(eichler_extension(phi, subs.l, subs.tbar))
        except NonIntegralExtensionError as exc:
            failure = f"phi_{i}: {exc}"
            break
    checks.append(CheckResult("extensions_integral", not failure, detail=failure))

    alpha_vectors = rank = None
    if not failure:
        t_lat = subs.t.induced_gram()
        sigma = period_point(tbar_lat, t_lat)
        t_split = subs.t_split
        rows = _reading_rows(subs.e0, subs.w_rows, t_split)  # once per run
        readings = [_read(g, rows, 19, t_split.rank) for g in big_phis]
        fix_e0 = all(c.fixes_e0 for c, _ in readings)
        fix_t = all(c.fixes_t_pointwise for c, _ in readings)
        checks.append(CheckResult("phis_fix_e0", fix_e0))
        checks.append(CheckResult("phis_fix_t_pointwise", fix_t))
        not_commuting = _commutation_failure(big_phis)
        checks.append(CheckResult("phis_commute", not not_commuting, detail=not_commuting))
        minimal = minimal_primitive_sublattice(sigma, t_lat)
        full = SublatticeEmbedding.from_rows(
            minimal.ambient, linalg.identity(3))
        checks.append(CheckResult(
            "period_minimal_sublattice_is_t", minimal.spans_same(full)))
        detail = "skipped: the generators do not fix e0 and T pointwise"
        if fix_e0 and fix_t:  # all _alpha asks of every generator but its w rows
            try:
                alpha_vectors = tuple(_alpha(*reading) for reading in readings)
                rank = abelian_rank_of_image(list(alpha_vectors))
                detail = f"rank {rank}"
            except ShapeViolationError as exc:
                detail = f"phi_{[a for _, a in readings].index(None) + 1}: {exc}"
        checks.append(CheckResult("alpha_rank_18", rank == 18, detail=detail))

    all_ok = all(c.passed for c in checks)
    return replace(
        report,
        checks=tuple(checks),
        extension_orders=None if failure else (1,) * len(phis),
        alpha_vectors=alpha_vectors,
        group_rank=rank if all_ok else None,
    )
