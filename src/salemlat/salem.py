"""Salem polynomial recognition, certified enclosures and enumeration.

A Salem polynomial is a monic irreducible reciprocal integer polynomial
whose roots are a real pair alpha > 1, 1/alpha and (deg - 2) points on
the unit circle. Classification works entirely through the trace
polynomial and integer Sturm counts; the Salem number is enclosed by
bisection on exact rational midpoints, where the sign of p(a/b) is that
of the homogeneous integer sum of c_i a^i b^(n-i), never by numerical
root finding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, floor, log

from .intpoly import (
    DegreeBoundError,
    IntPolynomial,
    OddDegreeError,
    SturmContext,
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


def _bisect_enclosure(p: IntPolynomial, lo: Fraction, hi: Fraction,
                      precision: Fraction) -> RationalInterval:
    # invariant: p(lo) < 0 < p(hi) and the bracket holds one root, above 1
    while hi - lo >= precision or lo <= 1:
        mid = (lo + hi) / 2
        v = p.sign_at(mid)
        if v == 0:
            # rational root; nudge the bracket by an exact eighth
            eps = (hi - lo) / 8
            lo, hi = mid - eps, mid + eps
            if p.sign_at(lo) >= 0 or p.sign_at(hi) <= 0:
                raise ValueError("bisection bracket lost its sign change")
            continue
        if v < 0:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def salem_enclosure(p: IntPolynomial, precision: Fraction) -> RationalInterval:
    """Certified enclosure of the largest real root of a Salem polynomial.

    For a Salem polynomial, p(1) < 0 < p(B) at the Cauchy bound B and the
    only real roots are alpha and 1/alpha, so plain sign bisection on
    [1, B] converges to alpha.
    """
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
    lexicographically on the ascending coefficient tuple.
    """
    if degree % 2 != 0:
        raise OddDegreeError(
            f"Salem polynomials have even degree; got {degree}")
    if not 2 <= degree <= ENUMERATION_DEGREE_BOUND:
        raise DegreeBoundError(
            f"degree must lie in [2, {ENUMERATION_DEGREE_BOUND}]")
    if trace_min > trace_max:
        raise ValueError("empty trace window")
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
            if trace_min <= result.trace <= trace_max:
                found.append(result)
    found.sort(key=lambda c: c.polynomial.coeffs)
    return found


REFINEMENT_BUDGET = 60


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
    log_a = log(float(a_iv.midpoint))
    log_b = log(float(b_iv.midpoint))
    for n in range(n_lo, n_hi + 1):
        m_center_lo = (log(float(c1)) - n * log_a) / log_b
        m_center_hi = (log(float(c2)) - n * log_a) / log_b
        m_start = floor(m_center_lo) - 2
        m_stop = floor(m_center_hi) + 3
        m = m_start
        while m < m_stop:
            verdict, value = _decide_power_product(
                alpha, beta, a_iv, b_iv, n, m, c1, c2)
            a_iv = value[1]
            b_iv = value[2]
            if verdict:
                results.append((n, m, value[0]))
            m += 1
        # the float window can be off by a step; extend while still inside
        for m in itertools.count(m_stop):
            verdict, value = _decide_power_product(
                alpha, beta, a_iv, b_iv, n, m, c1, c2)
            a_iv, b_iv = value[1], value[2]
            if not verdict:
                break
            results.append((n, m, value[0]))
        for m in itertools.count(m_start - 1, -1):
            verdict, value = _decide_power_product(
                alpha, beta, a_iv, b_iv, n, m, c1, c2)
            a_iv, b_iv = value[1], value[2]
            if not verdict:
                break
            results.append((n, m, value[0]))
    results.sort()
    return results


def _decide_power_product(alpha, beta, a_iv, b_iv, n, m, c1, c2):
    for _ in range(REFINEMENT_BUDGET):
        value = interval_mul(interval_pow(a_iv, n), interval_pow(b_iv, m))
        verdict = _decide_inside(value, c1, c2)
        if verdict is not None:
            return verdict, (value, a_iv, b_iv)
        a_iv = salem_enclosure(alpha.polynomial, a_iv.width / 4)
        b_iv = salem_enclosure(beta.polynomial, b_iv.width / 4)
    raise UndecidableComparisonError(
        f"cannot separate alpha^{n} * beta^{m} from ({c1}, {c2}); "
        "a bound may equal a power product")
