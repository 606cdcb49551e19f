"""Exact rational plumbing: certified intervals and rational parsing.

Root enclosures and entropy bounds funnel through these helpers so that
no floating point ever decides a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def interval_mul(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    # restricted to positive operands, which is all the callers need
    if a.lo <= 0 or b.lo <= 0:
        raise ValueError("interval_mul requires strictly positive intervals")
    return RationalInterval(a.lo * b.lo, a.hi * b.hi)


def interval_pow(a: RationalInterval, n: int) -> RationalInterval:
    """a**n for a strictly positive interval and any integer n."""
    if a.lo <= 0:
        raise ValueError("interval_pow requires a strictly positive interval")
    if n == 0:
        return RationalInterval(Fraction(1), Fraction(1))
    if n > 0:
        return RationalInterval(a.lo**n, a.hi**n)
    return RationalInterval(1 / a.hi ** (-n), 1 / a.lo ** (-n))


def interval_max(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    return RationalInterval(max(a.lo, b.lo), max(a.hi, b.hi))


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse '3', '-3/7', '0.25' or '1e-6' into an exact Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse rational from {text!r}") from exc
