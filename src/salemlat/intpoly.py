"""Exact integer polynomial arithmetic and root location.

Coefficients are arbitrary-precision integers in ascending degree order.
Division, gcds and Sturm sequences share one integer pseudo-division
kernel: Sturm chains and gcds are primitive pseudo-remainder sequences,
scaled by positive integers only, so every sign of the rational Sturm
sequence survives. Signs at a rational a/b, and at +-infinity, come from
homogeneous integer Horner evaluation. Roots of unity are recognised by
trial division by cyclotomic polynomials. Factorization strips those
once, then splits each squarefree part by a Kronecker-style bounded
search for monic factors, interpolated through one integral inverse of a
Vandermonde matrix, over the degrees that factor-degree patterns modulo
small primes allow; the patterns run on the same pseudo-division, reduced
mod p. The integers whose divisors it tries are factored by Pollard rho.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from . import linalg
from .rational import RationalInterval

IRREDUCIBILITY_DEGREE_BOUND = 24


class EndpointRootError(ValueError):
    """A Sturm-count endpoint a/b is itself a root."""

    def __init__(self, a: int, b: int):
        self.endpoint = Fraction(a, b)
        super().__init__(f"interval endpoint {self.endpoint} is a root")


class DegreeBoundError(ValueError):
    pass


class NotReciprocalError(ValueError):
    pass


class OddDegreeError(ValueError):
    """Trace-polynomial input must have even degree."""


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "IntPolynomial":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.from_coeffs(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def scale(self, k: int) -> "IntPolynomial":
        if k == 0:
            return IntPolynomial.zero()
        return IntPolynomial(tuple(k * c for c in self.coeffs))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPolynomial":
        g = self.content()
        if g in (0, 1):
            return self
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def sign_at(self, x) -> int:
        """Sign of p(x) at a rational x, in integers."""
        v = _horner(self.coeffs, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def divmod_by(self, divisor: "IntPolynomial"):
        """Polynomial division over Q, returned as Fraction coefficient lists."""
        m, quot, rem = _pseudo_divmod(self.coeffs, divisor.coeffs)
        return [Fraction(q, m) for q in quot], [Fraction(r, m) for r in rem]

    def divides(self, other: "IntPolynomial") -> bool:
        """Whether self divides other over Q."""
        return not _pseudo_divmod(other.coeffs, self.coeffs)[2]

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        m, quot, rem = _pseudo_divmod(self.coeffs, divisor.coeffs)
        if rem:
            raise ValueError("division is not exact")
        if m != 1:
            raise ValueError("quotient is not integral")
        return IntPolynomial.from_coeffs(quot)

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "IntPolynomial(" + " + ".join(terms) + ")"


def _pseudo_divmod(f, g):
    """(m, quot, rem) with m > 0 and m f = quot g + rem, deg rem < deg g.

    f and g are ascending integer sequences without trailing zeros. Each
    step clears the top of the remainder with the smallest positive
    multiplier, so m = 1 exactly when every leading quotient is an
    integer (always, for monic g). The remainder carries no trailing
    zeros; the quotient has length max(len(f) - deg g, 0).
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dn = len(g) - 1
    lead = g[-1]
    m = 1
    quot = [0] * max(len(rem) - dn, 0)
    while len(rem) > dn:
        k = len(rem) - 1 - dn
        t = rem[-1]
        if lead != 1:
            d = gcd(lead, t)
            s, t = lead // d, t // d  # s * rem[-1] = t * lead
            if s < 0:
                s, t = -s, -t
            if s != 1:
                m *= s
                rem = [s * r for r in rem]
                quot = [s * q for q in quot]
        quot[k] = t
        for j in range(dn):
            rem[j + k] -= t * g[j]
        rem.pop()  # cancelled exactly
        while rem and rem[-1] == 0:
            rem.pop()
    return m, quot, rem


def _remainder_sequence(a, b) -> list[list[int]]:
    """a, b, then minus the primitive pseudo-remainder of the two terms
    before, up to the last nonzero term.

    Each term is a positive multiple of the term of the same sequence
    over Q, so for b = a' it is a Sturm sequence; the last term is a gcd.
    """
    seq = [list(a), list(b)]
    while seq[-1]:
        rem = _pseudo_divmod(seq[-2], seq[-1])[2]
        g = gcd(*rem)
        seq.append([-(c // g) for c in rem])
    seq.pop()
    return seq


def _horner(coeffs, a: int, b: int) -> int:
    """b^n p(a/b) for n = deg p and b > 0: the sum of c_i a^i b^(n-i); at
    (a, b) = (+-1, 0) that is c_n (+-1)^n, the sign of p at +-infinity."""
    acc = 0
    bk = 1
    for c in reversed(coeffs):
        acc = acc * a + c * bk
        bk *= b
    return acc


def poly_from_string(text: str) -> IntPolynomial:
    """Parse comma-separated ascending coefficients, e.g. '1,-1,-1,-1,1'."""
    return IntPolynomial.from_coeffs(int(t) for t in text.split(","))


def is_reciprocal(p: IntPolynomial) -> bool:
    """Palindromic coefficient test; requires a nonzero polynomial."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return p.coeffs == tuple(reversed(p.coeffs))


def gcd_poly(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Monic gcd over Q, returned as a primitive integer polynomial."""
    out = IntPolynomial.from_coeffs(_remainder_sequence(a.coeffs, b.coeffs)[-1])
    return -out.primitive() if out.leading < 0 else out.primitive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    if p.degree <= 0:
        return p
    g = gcd_poly(p, p.derivative())
    if g.degree <= 0:
        return p
    return p.exact_div(g)


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """[(q, k)] with p = lc * prod q^k, each q squarefree and the q coprime."""
    parts: list[tuple[IntPolynomial, int]] = []
    # chain g_k = prod f_i^{max(e_i - k, 0)}
    chain = [p]
    while chain[-1].degree > 0:
        cur = chain[-1]
        chain.append(gcd_poly(cur, cur.derivative()))
    # sf_k = g_{k-1} / g_k = product of factors of multiplicity >= k
    sf = [chain[k - 1].exact_div(chain[k]) for k in range(1, len(chain))]
    for k in range(len(sf)):
        exact = sf[k] if k + 1 >= len(sf) else sf[k].exact_div(sf[k + 1])
        if exact.degree >= 1:
            parts.append((exact, k + 1))
    return parts


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """1 + max |a_i / a_n|; all roots lie strictly inside this radius."""
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _sturm_chain(p: IntPolynomial) -> list[list[int]]:
    return _remainder_sequence(p.coeffs, p.derivative().coeffs)


def _variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class SturmContext:
    """Precomputed Sturm chain for repeated counting on one polynomial."""

    def __init__(self, p: IntPolynomial):
        self.polynomial = p
        self._chain = _sturm_chain(p) if p.degree >= 1 else []

    @property
    def squarefree(self) -> bool:
        """Whether p is squarefree: the chain ends in gcd(p, p')."""
        return not self._chain or len(self._chain[-1]) == 1

    def variations(self, a: int, b: int) -> int:
        """Sign variations of the chain at a/b (b > 0), or at +-infinity for
        (a, b) = (+-1, 0); EndpointRootError at a root."""
        values = [_horner(cs, a, b) for cs in self._chain]
        if values and values[0] == 0:
            raise EndpointRootError(a, b)
        return _variations(values)

    def count(self, lo, hi) -> int:
        """Distinct real roots in the open interval between rationals lo, hi."""
        if not self._chain or lo == hi:
            return 0
        return (self.variations(lo.numerator, lo.denominator)
                - self.variations(hi.numerator, hi.denominator))


def sturm_count(p: IntPolynomial, interval: RationalInterval) -> int:
    """Exact number of real roots of a squarefree p in the open interval.

    Raises EndpointRootError when an endpoint is a root, which would make
    the count ill-defined.
    """
    return SturmContext(p).count(interval.lo, interval.hi)


def count_real_roots(p: IntPolynomial) -> int:
    """Distinct real roots of a squarefree p over all of R: the chain's
    variations at -infinity less those at +infinity."""
    sturm = SturmContext(p)
    return sturm.variations(-1, 0) - sturm.variations(1, 0)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in _factorize(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    if n < 1:
        raise ValueError("n >= 1 required")
    num = IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic_polynomial(d))
    return num


@lru_cache(maxsize=None)
def _cyclotomic_indices_up_to_degree(degree: int) -> tuple[int, ...]:
    # phi(n) >= sqrt(n/2), so n <= 2*degree^2 + 1 suffices
    bound = 2 * degree * degree + 8
    return tuple(n for n in range(1, bound + 1) if euler_phi(n) <= degree)


def cyclotomic_order(p: IntPolynomial) -> int | None:
    """The n with p equal to the n-th cyclotomic polynomial, else None."""
    if not p.is_monic or p.degree < 1:
        return None
    for n in _cyclotomic_indices_up_to_degree(p.degree):
        if euler_phi(n) == p.degree and cyclotomic_polynomial(n) == p:
            return n
    return None


def strip_cyclotomic_factors(p: IntPolynomial):
    """Divide out every cyclotomic factor.

    Returns (remainder, [(n, multiplicity)]). Complete because a cyclotomic
    factor of p has phi(n) <= deg p.
    """
    rem = p.coeffs
    found: list[tuple[int, int]] = []
    for n in _cyclotomic_indices_up_to_degree(max(p.degree, 1)):
        phi_n = cyclotomic_polynomial(n).coeffs
        mult = 0
        while len(rem) >= len(phi_n):
            # phi_n is monic, so this is plain integer division
            _, quot, r = _pseudo_divmod(rem, phi_n)
            if r:
                break
            rem = quot
            mult += 1
        if mult:
            found.append((n, mult))
    return IntPolynomial(tuple(rem)), found


def is_cyclotomic_product(p: IntPolynomial) -> bool:
    """True iff every root of p is a root of unity.

    A monic integer polynomial has only roots of unity as roots exactly
    when it is a product of cyclotomic polynomials, and stripping those
    is complete because each such factor has phi(n) <= deg p.
    """
    if not p.is_monic:
        raise ValueError("monic polynomial required")
    return strip_cyclotomic_factors(p)[0].degree == 0


def trace_polynomial(p: IntPolynomial) -> IntPolynomial:
    """The q of degree n with p(x) = x^n q(x + 1/x), for reciprocal p of degree 2n.

    Uses the recursion t_k(y) = y t_{k-1}(y) - t_{k-2}(y) for x^k + x^{-k}.
    """
    if not is_reciprocal(p):
        raise NotReciprocalError("trace polynomial requires a reciprocal polynomial")
    if p.degree % 2 != 0:
        raise OddDegreeError("trace polynomial requires even degree")
    n = p.degree // 2
    t_prev = IntPolynomial.from_coeffs([2])
    t_cur = IntPolynomial.x()
    q = IntPolynomial.from_coeffs([p.coeffs[n]])
    for k in range(1, n + 1):
        q = q + t_cur.scale(p.coeffs[n + k])
        t_prev, t_cur = t_cur, IntPolynomial.x() * t_cur - t_prev
    return q


# ---------------------------------------------------------------------------
# irreducibility and bounded factor search
# ---------------------------------------------------------------------------


def _reduce_mod(coeffs, p: int) -> list[int]:
    """The coefficients mod p in [0, p), trimmed."""
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pm_gcd(a, b, p):
    """Monic gcd over GF(p) of reduced a and b, a monic.

    Each divisor is made monic mod p first, so the integer pseudo-division
    runs with m = 1 and its remainder, reduced mod p, is the GF(p) one.
    """
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _reduce_mod(_pseudo_divmod(a, b)[2], p)
    return a


def _ddf_degrees(poly: IntPolynomial, p: int) -> list[int] | None:
    """Degrees (with multiplicity) of the irreducible factors of poly mod p.

    Distinct-degree factorization; None when poly is not squarefree mod p
    or drops degree mod p, in which case the pattern gives no information.
    f stays monic, so products and quotients reduce through the integer
    pseudo-division with m = 1.
    """
    f = _reduce_mod(poly.coeffs, p)
    if len(f) - 1 != poly.degree:
        return None
    fd = _reduce_mod([i * c for i, c in enumerate(f)][1:], p)
    if not fd or len(_pm_gcd(f, fd, p)) > 1:
        return None
    degrees = []
    h = [0, 1]
    d = 1
    while len(f) - 1 >= 2 * d:
        base = IntPolynomial(tuple(h))  # x^(p^(d-1)) mod f; h becomes its p-th power
        for _ in range(p - 1):
            h = _reduce_mod(_pseudo_divmod((IntPolynomial(tuple(h)) * base).coeffs, f)[2], p)
        g = _pm_gcd(f, _reduce_mod([c - (i == 1) for i, c in enumerate(h + [0, 0])], p), p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f = _reduce_mod(_pseudo_divmod(f, g)[1], p)
            h = _reduce_mod(_pseudo_divmod(h, f)[2], p)
        d += 1
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _possible_proper_degrees(p: IntPolynomial) -> set[int]:
    """Degrees d in [1, n-1] that a monic integer factor could have."""
    n = p.degree
    possible = set(range(1, n))
    for prime in (2, 3, 5, 7, 11, 13):
        if not possible & set(range(1, n // 2 + 1)):
            break
        degs = _ddf_degrees(p, prime)
        if degs is None:
            continue
        sums = {0}
        for d in degs:
            sums |= {s + d for s in sums}
        possible &= sums
    return possible


def _divisors_signed(n: int) -> list[int]:
    """Every divisor of n != 0 with both signs, sorted by absolute value."""
    divs = [1]
    for prime, e in _factorize(n).items():
        divs = [d * prime ** k for d in divs for k in range(e + 1)]
    return sorted(divs + [-d for d in divs], key=abs)


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| for n != 0: each cofactor is kept once
    _is_probable_prime accepts it, else split by a small prime or Pollard rho."""
    out: dict[int, int] = {}
    stack = [abs(n)]
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
        elif m > 1:
            d = next((p for p in _SMALL_PRIMES if m % p == 0), 0) or _pollard_rho(m)
            stack += [d, m // d]
    return out


# psi_12: the least strong pseudoprime to every base in _SMALL_PRIMES, so
# the Miller-Rabin test below, which also trial-divides by them, is a proof
# of primality for every n under it (Sorenson and Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BOUND = 318665857834031151167461
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # a composite without a factor up to 37 is at least 41^2
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_BATCH = 100


def _pollard_rho(n: int) -> int:
    """A proper factor of an odd composite n by Brent's cycle search on y^2 + c.

    Each step is one squaring; y runs r steps past the saved x, r doubling,
    and the x - y of a batch of _RHO_BATCH steps are multiplied mod n under
    one gcd. A batch whose gcd is n is walked again from its start, one gcd
    per step (Brent, BIT 20, 1980).
    """
    c = 1
    while True:
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                start = (start * start + c) % n
                d = gcd(x - start, n)
        if d != n:
            return d
        c += 1


def _l2_norm_bound(p: IntPolynomial) -> int:
    return isqrt(sum(c * c for c in p.coeffs)) + 1


def _mignotte_factor_bound(p: IntPolynomial, d: int) -> int:
    """Bound on coefficients of a monic degree-d factor of monic p.

    Mignotte: |b_j| <= C(d-1, j) ||p||_2 + C(d-1, j-1) |lc(p)|.
    """
    norm = _l2_norm_bound(p)
    return max(comb(d - 1, j) * norm + comb(d - 1, max(j - 1, 0)) for j in range(d))


def _monic_interpolation(points: list[int]):
    """values -> the monic g of degree d = len(points) with g(t) = value at
    each point, or None when g is not integral.

    With V the Vandermonde matrix of the distinct points, g = x^d + h has
    V h = values - t^d, so h = adj V (values - t^d) / det V is integral iff
    det V divides every entry; (adj V, det V) is computed once.
    """
    d = len(points)
    adj, det = linalg.integral_inverse(
        tuple(tuple(t ** j for j in range(d)) for t in points))
    powers = [t ** d for t in points]

    def interpolate(values) -> IntPolynomial | None:
        rhs = [v - tp for v, tp in zip(values, powers)]
        h = []
        for row in adj:
            c, r = divmod(sum(a * b for a, b in zip(row, rhs)), det)
            if r:
                return None
            h.append(c)
        return IntPolynomial(tuple(h) + (1,))

    return interpolate


def _kronecker_factor(p: IntPolynomial, d: int) -> IntPolynomial | None:
    """Search for a monic degree-d factor through divisor interpolation.

    Kronecker's method: a factor g satisfies g(t) | p(t) at every integer t,
    so candidate factors are interpolated from divisor tuples and checked
    by exact division. Mignotte bounds prune the divisor lists.
    """
    points: list[int] = []
    t = 0
    while len(points) < d:
        if p(t) != 0:
            points.append(t)
        t = -t if t > 0 else -t + 1
    bound = _mignotte_factor_bound(p, d)
    divisor_lists = []
    for t in points:
        limit = sum(abs(t) ** j for j in range(d)) * bound + abs(t) ** d
        divs = [v for v in _divisors_signed(p(t)) if abs(v) <= limit]
        divisor_lists.append(divs)
    order = sorted(range(d), key=lambda i: len(divisor_lists[i]))
    pts = [points[i] for i in order]
    lists = [divisor_lists[i] for i in order]
    interpolate = _monic_interpolation(pts)
    for values in itertools.product(*lists):
        g = interpolate(values)
        if g is None or any(abs(c) > bound for c in g.coeffs[:-1]):
            continue
        if g.divides(p):
            return g
    return None


def is_irreducible_over_integers(p: IntPolynomial) -> bool:
    """Irreducibility over Z for monic p of degree <= 24.

    p is irreducible iff monic_irreducible_factors returns p alone, with
    multiplicity 1, so both share one bounded factor search.
    """
    if not p.is_monic or p.degree < 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    if p.degree > IRREDUCIBILITY_DEGREE_BOUND:
        raise DegreeBoundError(
            f"degree {p.degree} exceeds the supported bound {IRREDUCIBILITY_DEGREE_BOUND}"
        )
    return monic_irreducible_factors(p) == [(p, 1)]


def monic_irreducible_factors(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Factor a monic p into monic irreducibles, sorted, with multiplicities.

    One pass: x^k and the cyclotomic factors are divided out once, what is
    left is decomposed into squarefree parts, and each part is split by a
    bounded Kronecker search over the factor degrees that the patterns
    modulo small primes allow. At degree 1 the search tries x + v for each
    v dividing q(0), which is the rational-root test.
    """
    if not p.is_monic:
        raise ValueError("monic polynomial required")
    k = next(i for i, c in enumerate(p.coeffs) if c)
    rem, cyclo = strip_cyclotomic_factors(IntPolynomial(p.coeffs[k:]))
    out = [(IntPolynomial.x(), k)] if k else []
    out += [(cyclotomic_polynomial(n), mult) for n, mult in cyclo]
    for part, mult in squarefree_decomposition(rem):
        work = [part]
        while work:
            q = work.pop()
            for d in sorted(_possible_proper_degrees(q)):
                g = _kronecker_factor(q, d) if d <= q.degree // 2 else None
                if g is not None:
                    work += [g, q.exact_div(g)]
                    break
            else:
                out.append((q, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def count_roots_outside_unit_circle(p: IntPolynomial) -> int:
    """Roots with |z| > 1, counted with multiplicity, for self-reciprocal inputs.

    Strips cyclotomic factors (all roots on the circle), then works on the
    reversed-polynomial-invariant remainder through its trace polynomial:
    a squarefree palindromic part of degree 2s with r real trace roots in
    (-2, 2) has exactly s - r roots outside the circle.
    """
    if p.is_zero or p.constant == 0:
        raise ValueError("polynomial must not vanish at 0")
    rem, _ = strip_cyclotomic_factors(p)
    if rem.degree <= 0:
        return 0
    if not is_reciprocal(rem):
        raise ValueError(
            "root counting outside the circle needs the non-cyclotomic part "
            "to be self-reciprocal (true for isometry characteristic polynomials)"
        )
    total = 0
    for part, mult in squarefree_decomposition(rem):
        if not is_reciprocal(part) or part.degree % 2 != 0:
            raise ValueError("unexpected non-reciprocal squarefree component")
        q = trace_polynomial(part)
        inside = sturm_count(q, RationalInterval(Fraction(-2), Fraction(2)))
        total += mult * (part.degree // 2 - inside)
    return total
