"""Exact rational plumbing: certified intervals, an integer logarithm and
strict parsing of rational, integer and JSON inputs.

Root enclosures and entropy bounds funnel through these helpers so that
no floating point ever decides a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from reprlib import repr as short_repr


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


def _atanh_scaled(p: int, q: int, w: int) -> tuple[int, int]:
    """(s, e) with s <= 2^w atanh(p/q) < s + e, for 0 <= p/q <= 1/3.

    Each term 2^w t^(2j+1)/(2j+1) is floored in fixed point. A floored
    power falls short by less than 1/(1 - t^2) <= 9/8, so a term by less
    than 2, and once a power floors to 0 the tail is below (9/8)^2 < 2.
    """
    power, p2, q2 = (p << w) // q, p * p, q * q
    total = j = 0
    while power:
        total += power // (2 * j + 1)
        power = power * p2 // q2
        j += 1
    return total, 2 * j + 2


def _scaled_log(x: Fraction, w: int) -> tuple[int, int]:
    """(v, e) with |2^w log x - v| <= e, for a rational x > 0.

    With x = 2^k m and m in [2/3, 4/3], log x = 2k atanh(1/3) + 2 atanh(t)
    for t = (m - 1)/(m + 1) in [-1/5, 1/7] (Brent and Zimmermann, Modern
    Computer Arithmetic, 4.4).
    """
    a, b = x.numerator, x.denominator
    k = a.bit_length() - b.bit_length()
    p, q = (a, b << k) if k >= 0 else (a << -k, b)  # m = p/q in (1/2, 2)
    if 3 * p > 4 * q:
        k, q = k + 1, 2 * q
    elif 3 * p < 2 * q:
        k, p = k - 1, 2 * p
    s, e = _atanh_scaled(abs(p - q), p + q, w)
    s2, e2 = _atanh_scaled(1, 3, w) if k else (0, 0)
    return 2 * (k * s2 + (s if p >= q else -s)), 2 * (abs(k) * e2 + e)


def _log_nearest(x: Fraction, bits: int) -> Fraction:
    """log x rounded to nearest at `bits` significant bits, for rational x > 0.

    Ziv's loop (ACM TOMS 17, 1991): rounding is monotone, so once both ends
    of an enclosure of 2^w log x round alike, log x rounds to that value.
    Otherwise w doubles. For x != 1, log x is transcendental, so it is no
    rounding midpoint and the loop ends.
    """
    def nearest(n: int) -> int:  # n rounded to nearest at `bits` significant bits
        shift = max(abs(n).bit_length() - bits, 0)
        return (n + (1 << shift >> 1)) >> shift << shift

    if x == 1:
        return Fraction(0)
    w = bits + 32
    while True:
        v, e = _scaled_log(x, w)
        if (lo := nearest(v - e)) == nearest(v + e):
            return Fraction(lo, 1 << w)
        w *= 2


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse '3', '-3/7', '0.25' or '1e-6' into an exact Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {text!r}") from exc


def parse_int(value) -> int:
    """A JSON integer, or a string of decimal digits with an optional minus
    sign, exactly; ValueError for a bool, a float or any other value."""
    digits = value.removeprefix("-") if isinstance(value, str) else ""
    if type(value) is not int and not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {short_repr(value)}")
    return int(value)


def parse_ints(value) -> tuple[int, ...]:
    """A JSON list of integers, each read by parse_int."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of integers, got {short_repr(value)}")
    return tuple(map(parse_int, value))


def json_fields(data, *keys) -> tuple:
    """The values of keys in the JSON object data; ValueError when data is
    not an object or lacks one of them."""
    if not isinstance(data, dict) or not all(k in data for k in keys):
        raise ValueError(f"expected a JSON object with the keys {', '.join(keys)}")
    return tuple(data[k] for k in keys)
