"""Salem polynomial recognition, certified enclosures and enumeration.

A Salem polynomial is a monic irreducible reciprocal integer polynomial
whose roots are a real pair alpha > 1, 1/alpha and (deg - 2) points on
the unit circle. Classification works entirely through the trace
polynomial and integer Sturm counts; the Salem number is enclosed by a
dyadic bisection in integers, a/2^k < b/2^k, the sign of p(m/2^k) being
that of the integer sum of c_i m^i 2^(k(n-i)), never by numerical root
finding. isometry.entropy runs the same kernel behind a Sturm phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, floor, lcm, log

from .intpoly import (
    DegreeBoundError,
    IntPolynomial,
    OddDegreeError,
    SturmContext,
    _horner,
    cauchy_root_bound,
    gcd_poly,
    is_reciprocal,
    strip_cyclotomic_factors,
    trace_polynomial,
)
from .rational import RationalInterval, interval_mul, interval_pow

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


def _bisect_enclosure(p: IntPolynomial, lo: Fraction, hi: Fraction,
                      precision: Fraction,
                      sturm: SturmContext | None = None) -> RationalInterval:
    """Enclosure of the largest root of p in (lo, hi), where p(hi) > 0.

    The one bisection, dyadic and in integers: the bracket is a/d < b/d and
    the midpoint (a + b)/2d, so from 1 and an integral Cauchy bound every
    midpoint is some a/2^k; only the result is built as Fractions. With a
    Sturm context, variations decide whether a root lies above the midpoint
    until one root is left; then, as without one, p(lo) < 0 < p(hi), signs
    decide and stopping also needs lo > 1. A root midpoint returns [r, r].
    """
    d = lcm(lo.denominator, hi.denominator)
    a, b = int(lo * d), int(hi * d)
    eps = Fraction(precision)
    if sturm is not None:
        v_lo, v_hi = sturm.variations(a, d), sturm.variations(b, d)
    while (b - a) * eps.denominator >= eps.numerator * d or (sturm is None and a <= d):
        m, d = a + b, 2 * d
        if sturm is None:
            v = _horner(p.coeffs, m, d)
            if v == 0:
                a = b = m
                break
            up = v < 0
        else:
            v = sturm.variations(m, d)
            up = v > v_hi  # a root lies in (mid, hi)
            v_lo = v if up else v_lo
        a, b = (m, 2 * b) if up else (2 * a, m)
        if sturm is not None and v_lo - v_hi == 1:
            sturm = None  # one root left: signs decide from here
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
    return _bisect_enclosure(p, lo, hi, precision)


DEFAULT_PRECISION = Fraction(1, 10**6)


def classify_salem(p: IntPolynomial,
                   precision: Fraction = DEFAULT_PRECISION
                   ) -> SalemCertificate | SalemRejection:
    """Decide whether p is a Salem polynomial, with a certificate or reason.

    The steps are exact throughout: reciprocity is a palindrome test,
    cyclotomic factors are found by trial division (complete, since such a
    factor has phi(n) <= deg p), repeated factors by a gcd, and the root
    layout by Sturm counts on the trace polynomial. A reciprocal
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
    if gcd_poly(p, p.derivative()).degree > 0:
        return SalemRejection(RejectionReason.REDUCIBLE, "repeated factor")
    q = trace_polynomial(p)
    s = q.degree
    bound = max(Fraction(3), cauchy_root_bound(q))
    sturm = SturmContext(q)
    beyond = sturm.count(Fraction(2), bound)
    inside = sturm.count(Fraction(-2), Fraction(2))
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
    big = max(Fraction(2), Fraction(trace_max + (n - 2)))

    def sym_bound(j: int) -> int:
        # subsets of the root multiset avoiding {alpha, 1/alpha},
        # containing exactly one of them, or containing both
        val = Fraction(comb(n - 2, j))
        if j >= 1:
            val += (big + 1) * comb(n - 2, j - 1)
        if j >= 2:
            val += comb(n - 2, j - 2)
        return floor(val) + 1

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


def _log(x: Fraction) -> float:
    """log x for a positive rational, from the logs of its integer parts, so
    that no float conversion overflows however large x is."""
    x = Fraction(x)
    return log(x.numerator) - log(x.denominator)


def _decide_inside(value: RationalInterval, c1: Fraction, c2: Fraction) -> bool | None:
    if value.lo > c1 and value.hi < c2:
        return True
    if value.hi <= c1 or value.lo >= c2:
        return False
    return None


def bounded_power_products(alpha: SalemCertificate, beta: SalemCertificate,
                           c1: Fraction, c2: Fraction,
                           n_range: tuple[int, int]
                           ) -> list[tuple[int, int, RationalInterval]]:
    """All (n, m) with alpha^n * beta^m certified inside (c1, c2).

    n runs over the inclusive range; for each n the admissible m form a
    finite window because beta > 1. Comparisons are decided by interval
    arithmetic on the certified enclosures, refined on demand; exhausting
    the refinement budget means c1 or c2 coincides with a power product.
    """
    if not 1 < c1 < c2:
        raise ValueError("need 1 < c1 < c2")
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise ValueError("empty n range")
    a_iv = alpha.salem_number_interval
    b_iv = beta.salem_number_interval
    results: list[tuple[int, int, RationalInterval]] = []
    log_a = _log(a_iv.midpoint)
    log_b = _log(b_iv.midpoint)
    for n in range(n_lo, n_hi + 1):
        m_start = floor((_log(c1) - n * log_a) / log_b) - 2
        m_stop = floor((_log(c2) - n * log_a) / log_b) + 3
        for m in range(m_start, m_stop):
            verdict, value, a_iv, b_iv = _decide_power_product(
                alpha, beta, a_iv, b_iv, n, m, c1, c2)
            if verdict:
                results.append((n, m, value))
        # the float window can be off by a step; extend while still inside
        for step, m in ((1, m_stop), (-1, m_start - 1)):
            while True:
                verdict, value, a_iv, b_iv = _decide_power_product(
                    alpha, beta, a_iv, b_iv, n, m, c1, c2)
                if not verdict:
                    break
                results.append((n, m, value))
                m += step
    results.sort()
    return results


def _decide_power_product(alpha, beta, a_iv, b_iv, n, m, c1, c2):
    for _ in range(REFINEMENT_BUDGET):
        value = interval_mul(interval_pow(a_iv, n), interval_pow(b_iv, m))
        verdict = _decide_inside(value, c1, c2)
        if verdict is not None:
            return verdict, value, a_iv, b_iv
        # continue from the held brackets, which a restart from [1, B] passes
        a_iv = _bisect_enclosure(alpha.polynomial, a_iv.lo, a_iv.hi, a_iv.width / 4)
        b_iv = _bisect_enclosure(beta.polynomial, b_iv.lo, b_iv.hi, b_iv.width / 4)
    raise UndecidableComparisonError(
        f"cannot separate alpha^{n} * beta^{m} from ({c1}, {c2}); "
        "a bound may equal a power product")
