"""Salem polynomial recognition, certified enclosures and enumeration.

A Salem polynomial is a monic irreducible reciprocal integer polynomial
whose roots are a real pair alpha > 1, 1/alpha and (deg - 2) points on
the unit circle. Classification works entirely through the trace
polynomial and integer Sturm counts; the Salem number is enclosed by a
dyadic bisection in integers, a/2^k < b/2^k, the sign of p(m/2^k) being
that of the integer sum of c_i m^i 2^(k(n-i)), never by numerical root
finding. isometry.entropy runs the same kernel on Sturm counts of a
trace polynomial.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from math import comb, lcm

from .intpoly import (
    DegreeBoundError,
    IntPolynomial,
    OddDegreeError,
    SturmContext,
    _horner,
    cauchy_root_bound,
    is_reciprocal,
    strip_cyclotomic_factors,
    trace_polynomial,
)
from .rational import RationalInterval

ENUMERATION_DEGREE_BOUND = 12


class RejectionReason(Enum):
    NOT_RECIPROCAL = "not reciprocal"
    REDUCIBLE = "reducible"
    ROOT_LAYOUT = "root layout"


@dataclass(frozen=True)
class SalemRejection:
    reason: RejectionReason
    detail: str

    def __repr__(self) -> str:
        return f"SalemRejection({self.reason.value}: {self.detail})"


@dataclass(frozen=True)
class SalemCertificate:
    """A verified Salem polynomial with a certified Salem-number enclosure."""

    polynomial: IntPolynomial
    degree: int
    trace: int
    salem_number_interval: RationalInterval
    unit_circle_root_pairs: int
    is_quadratic: bool

    def __post_init__(self) -> None:
        lo, hi = self.salem_number_interval.lo, self.salem_number_interval.hi
        if not (1 < lo <= hi):
            raise ValueError("Salem enclosure must lie strictly above 1")


class UndecidableComparisonError(ValueError):
    """Interval refinement hit its budget without deciding a comparison."""


def _require_positive(precision: Fraction) -> None:
    if precision <= 0:  # a bisection down to zero width never stops
        raise ValueError(f"precision must be positive; got {precision}")


def _bisect_enclosure(value_at, lo: Fraction, hi: Fraction,
                      precision: Fraction) -> RationalInterval:
    """Enclosure of a root r > 1 in (lo, hi), located by value_at.

    value_at(m, d) is an integer: negative when r lies above m/d, 0 at it
    and positive below. The one bisection, dyadic and in integers: the
    bracket is a/d < b/d and the midpoint (a + b)/2d, so from 1 and an
    integral Cauchy bound every midpoint is some a/2^k; only the result is
    built as Fractions. It stops once the width is below precision and
    lo > 1. A root midpoint returns [r, r].
    """
    d = lcm(lo.denominator, hi.denominator)
    a, b = int(lo * d), int(hi * d)
    eps = Fraction(precision)
    while (b - a) * eps.denominator >= eps.numerator * d or a <= d:
        m, d = a + b, 2 * d
        v = value_at(m, d)
        if v == 0:
            a = b = m
            break
        a, b = (m, 2 * b) if v < 0 else (2 * a, m)
    return RationalInterval(Fraction(a, d), Fraction(b, d))


def salem_enclosure(p: IntPolynomial, precision: Fraction) -> RationalInterval:
    """Certified enclosure of the largest real root of a Salem polynomial.

    For a Salem polynomial, p(1) < 0 < p(B) at the Cauchy bound B and the
    only real roots are alpha and 1/alpha, so plain sign bisection on
    [1, B] converges to alpha.
    """
    _require_positive(precision)
    lo = Fraction(1)
    hi = cauchy_root_bound(p)
    if not (p.sign_at(lo) < 0 < p.sign_at(hi)):
        raise ValueError("not a Salem-shaped polynomial")
    return _bisect_enclosure(partial(_horner, p.coeffs), lo, hi, precision)


DEFAULT_PRECISION = Fraction(1, 10**6)


def classify_salem(p: IntPolynomial,
                   precision: Fraction = DEFAULT_PRECISION
                   ) -> SalemCertificate | SalemRejection:
    """Decide whether p is a Salem polynomial, with a certificate or reason.

    The steps are exact throughout: reciprocity is a palindrome test,
    cyclotomic factors are found by trial division (complete, since such a
    factor has phi(n) <= deg p), and both repeated factors and the root
    layout are read off one Sturm chain of the trace polynomial q: once p
    has no root +-1, p and q are squarefree together, which the last term
    of the chain, gcd(q, q'), decides, and the layout is three sign
    variations of the chain, at -2, 2 and +infinity. A reciprocal
    polynomial with constant term 1, no cyclotomic factor, no repeated
    factor and exactly one trace root beyond 2 is automatically
    irreducible: each of its non-cyclotomic irreducible factors has
    constant term of absolute value 1 and therefore carries at least one
    root strictly outside the unit circle, but the layout admits only one.
    """
    if not p.is_monic or p.degree < 2:
        raise ValueError("monic polynomial of degree >= 2 required")
    _require_positive(precision)
    if not is_reciprocal(p):
        return SalemRejection(RejectionReason.NOT_RECIPROCAL,
                              "coefficient list is not palindromic")
    remainder, cyclo = strip_cyclotomic_factors(p)
    if cyclo:
        if remainder.degree == 0 and len(cyclo) == 1 and cyclo[0][1] == 1:
            return SalemRejection(RejectionReason.ROOT_LAYOUT,
                                  "all roots on the unit circle "
                                  f"(cyclotomic of order {cyclo[0][0]})")
        orders = ", ".join(str(n) for n, _ in cyclo)
        return SalemRejection(RejectionReason.REDUCIBLE,
                              f"cyclotomic factor(s) of order {orders}")
    q = trace_polynomial(p)
    sturm = SturmContext(q)
    if not sturm.squarefree:
        return SalemRejection(RejectionReason.REDUCIBLE, "repeated factor")
    s = q.degree
    at_two = sturm.variations(2, 1)  # q(+-2) = (+-1)^s p(+-1) != 0
    beyond = at_two - sturm.variations(1, 0)
    inside = sturm.variations(-2, 1) - at_two
    if beyond != 1 or inside != s - 1:
        return SalemRejection(
            RejectionReason.ROOT_LAYOUT,
            f"trace roots: {beyond} beyond 2, {inside} of {s - 1} required in (-2, 2)")
    interval = salem_enclosure(p, precision)
    return SalemCertificate(
        polynomial=p,
        degree=p.degree,
        trace=-p.coeffs[p.degree - 1],
        salem_number_interval=interval,
        unit_circle_root_pairs=(p.degree - 2) // 2,
        is_quadratic=(p.degree == 2),
    )


def enumerate_salem(degree: int, trace_min: int, trace_max: int,
                    precision: Fraction = DEFAULT_PRECISION) -> list[SalemCertificate]:
    """All Salem polynomials of the given degree with trace in the window.

    The coefficient box is the compactness bound: the circle roots pair-sum
    into [-(degree-2), degree-2], so alpha + 1/alpha <= trace_max + degree - 2,
    and elementary symmetric functions of roots bounded by R are bounded by
    binomial sums. Candidates failing the necessary sign test p(1) < 0 <
    p(-1) are skipped unclassified. Output is duplicate-free and sorted
    lexicographically on the ascending coefficient tuple, the order in
    which the box is walked: the free coefficients lead that tuple.
    """
    if degree % 2 != 0:
        raise OddDegreeError(
            f"Salem polynomials have even degree; got {degree}")
    if not 2 <= degree <= ENUMERATION_DEGREE_BOUND:
        raise DegreeBoundError(
            f"degree must lie in [2, {ENUMERATION_DEGREE_BOUND}]")
    if trace_min > trace_max:
        raise ValueError("empty trace window")
    _require_positive(precision)
    n = degree
    half = n // 2
    big = max(2, trace_max + (n - 2))

    def sym_bound(j: int) -> int:
        # subsets of the root multiset avoiding {alpha, 1/alpha},
        # containing exactly one of them, or containing both
        val = comb(n - 2, j)
        if j >= 1:
            val += (big + 1) * comb(n - 2, j - 1)
        if j >= 2:
            val += comb(n - 2, j - 2)
        return val + 1

    ranges: list[range] = []
    for k in range(1, half + 1):
        if k == 1:
            # a_{n-1} = a_1 = -trace
            ranges.append(range(-trace_max, -trace_min + 1))
        else:
            b = sym_bound(n - k)
            ranges.append(range(-b, b + 1))
    found: list[SalemCertificate] = []
    for free in itertools.product(*ranges):
        body = list(free) + list(reversed(free[:-1]))
        p = IntPolynomial.from_coeffs([1] + body + [1])
        # a Salem trace polynomial q has one root beyond 2 and the other
        # s - 1 in (-2, 2), so q(2) < 0 and (-1)^s q(-2) > 0; these are
        # p(1) and p(-1), since p(x) = x^s q(x + 1/x)
        if not p(1) < 0 < p(-1):
            continue
        result = classify_salem(p, precision)
        if isinstance(result, SalemCertificate):
            found.append(result)
    return found


REFINEMENT_BUDGET = 60


def bounded_power_products(alpha: SalemCertificate, beta: SalemCertificate,
                           c1: Fraction, c2: Fraction,
                           n_range: tuple[int, int]
                           ) -> list[tuple[int, int, RationalInterval]]:
    """All (n, m) with alpha^n * beta^m certified inside (c1, c2).

    n runs over the inclusive range. For each n the product increases with
    m because beta > 1, so the admissible m form one run: gallop from the
    previous n's first m (from m = 0 at the first n) and bisect to the
    first m not below c1, then walk up while inside. That first m moves by
    about -log alpha / log beta per n, so each n after the first costs a
    few tests beyond its run.
    Each place is decided by interval arithmetic on the certified
    enclosures, refined on demand; exhausting the refinement budget means
    c1 or c2 coincides with a power product.
    """
    if not 1 < c1 < c2:
        raise ValueError("need 1 < c1 < c2")
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise ValueError("empty n range")
    held = [alpha.salem_number_interval, beta.salem_number_interval]

    def place(n: int, m: int) -> tuple[int, RationalInterval]:
        """-1, 0 or 1 as alpha^n beta^m lies below c1, inside or above c2."""
        for _ in range(REFINEMENT_BUDGET):
            # a power k of a positive interval [l, h] has the ends l^k and h^k
            a, b = (sorted((iv.lo ** k, iv.hi ** k)) for iv, k in zip(held, (n, m)))
            value = RationalInterval(a[0] * b[0], a[1] * b[1])
            below, above = value.hi <= c1, value.lo >= c2
            if below or above or c1 < value.lo and value.hi < c2:
                return above - below, value
            # continue from the held brackets, which a restart from [1, B] passes
            held[:] = [_bisect_enclosure(partial(_horner, c.polynomial.coeffs),
                                         iv.lo, iv.hi, iv.width / 4)
                       for c, iv in zip((alpha, beta), held)]
        raise UndecidableComparisonError(
            f"cannot separate alpha^{n} * beta^{m} from ({c1}, {c2}); "
            "a bound may equal a power product")

    results: list[tuple[int, int, RationalInterval]] = []
    first = 0
    for n in range(n_lo, n_hi + 1):
        placed: dict[int, tuple[int, RationalInterval]] = {}

        def reached(m: int) -> bool:  # alpha^n beta^m is not below c1
            placed[m] = place(n, m)
            return placed[m][0] >= 0

        # gallop from the first m of the previous n in doubling steps;
        # then lo is below c1, hi is not
        step = -1 if reached(first) else 1
        near, far = first, first + step
        while reached(far) == (step < 0):
            near, far = far, 3 * far - 2 * near
        lo, hi = sorted((near, far))
        first = m = lo + 1 + bisect_left(range(lo + 1, hi), True, key=reached)
        verdict, value = placed[m]
        while verdict == 0:
            results.append((n, m, value))
            m += 1
            verdict, value = place(n, m)
    return results
