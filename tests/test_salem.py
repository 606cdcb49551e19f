import hashlib
import itertools
from fractions import Fraction

import mpmath
import pytest

from salemlat import intpoly
from salemlat import salem as salem_module
from salemlat.intpoly import (
    DegreeBoundError,
    IntPolynomial,
    OddDegreeError,
    cauchy_root_bound,
    is_reciprocal,
    poly_from_string,
    sturm_count,
    trace_polynomial,
)
from salemlat.rational import RationalInterval
from salemlat.salem import (
    DEFAULT_PRECISION,
    RejectionReason,
    SalemCertificate,
    SalemRejection,
    UndecidableComparisonError,
    bounded_power_products,
    classify_salem,
    enumerate_salem,
    salem_enclosure,
)
from salemlat.serialize import dumps_certificate, salem_certificate_to_json

from oracles import (
    fraction_bisect_enclosure,
    numeric_salem_oracle,
    unfiltered_enumerate_salem,
)

P = IntPolynomial.from_coeffs
LEHMER = poly_from_string("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def all_monic_reciprocal(degree: int, bound: int):
    half = degree // 2
    for free in itertools.product(range(-bound, bound + 1), repeat=half):
        body = list(free) + list(reversed(free[:-1]))
        yield P([1] + body + [1])


class TestClassify:
    def test_salem_quartic(self):
        cert = classify_salem(poly_from_string("1,-1,-1,-1,1"), Fraction(1, 10**6))
        assert isinstance(cert, SalemCertificate)
        assert Fraction("1.72208") <= cert.salem_number_interval.lo
        assert cert.salem_number_interval.hi <= Fraction("1.72209")
        assert cert.trace == 1
        assert cert.unit_circle_root_pairs == 1
        assert not cert.is_quadratic

    def test_cyclotomic_rejected(self):
        rej = classify_salem(P([1, 1, 1, 1, 1]))
        assert isinstance(rej, SalemRejection)
        assert rej.reason == RejectionReason.ROOT_LAYOUT
        assert "unit circle" in rej.detail

    def test_lehmer(self):
        cert = classify_salem(LEHMER, Fraction(1, 10**9))
        assert isinstance(cert, SalemCertificate)
        assert Fraction("1.176280") <= cert.salem_number_interval.lo
        assert cert.salem_number_interval.hi <= Fraction("1.176281")
        assert cert.unit_circle_root_pairs == 4

    def test_not_reciprocal(self):
        rej = classify_salem(P([2, -3, 1]))
        assert rej.reason == RejectionReason.NOT_RECIPROCAL

    def test_reducible_cyclotomic_factor(self):
        p = P([1, 1]) * P([1, 1]) * P([1, -6, 1])
        rej = classify_salem(IntPolynomial.from_coeffs(p.coeffs))
        assert rej.reason == RejectionReason.REDUCIBLE

    def test_repeated_salem_factor_rejected(self):
        # no root +-1, so the trace polynomial's Sturm chain ends in a
        # nonconstant gcd exactly when p has a repeated factor
        pell = P([1, -6, 1])
        for p in (pell * pell, LEHMER * LEHMER, pell * pell * P([1, -3, 1])):
            rej = classify_salem(p)
            assert isinstance(rej, SalemRejection), p
            assert rej.reason == RejectionReason.REDUCIBLE, p
            assert rej.detail == "repeated factor", p

    def test_quadratic_flagged(self):
        cert = classify_salem(P([1, -6, 1]))
        assert cert.is_quadratic
        assert cert.degree == 2
        assert cert.unit_circle_root_pairs == 0

    def test_accepted_implies_structure(self):
        for p in all_monic_reciprocal(4, 2):
            out = classify_salem(p)
            if isinstance(out, SalemCertificate):
                assert is_reciprocal(p)
                assert p.constant == 1
                assert p.degree % 2 == 0
                iv = out.salem_number_interval
                assert 1 < iv.lo <= iv.hi

    def test_oracle_agreement_degree_8_sample(self):
        # full degree-4/6 sweeps live in the acceptance suite; spot-check 8
        count = 0
        for p in all_monic_reciprocal(8, 1):
            ours = classify_salem(p, Fraction(1, 10**12))
            is_salem, alpha = numeric_salem_oracle(p)
            assert isinstance(ours, SalemCertificate) == is_salem, p
            if is_salem:
                iv = ours.salem_number_interval
                assert float(iv.lo) <= alpha <= float(iv.hi)
                count += 1
        assert count > 0

    def test_enclosure_matches_reciprocal_root(self):
        # the smallest root is 1/alpha: certify by locating a root of the
        # reversed bisection problem inside the reciprocal interval
        cert = classify_salem(LEHMER, Fraction(1, 10**9))
        iv = cert.salem_number_interval
        lo, hi = 1 / iv.hi, 1 / iv.lo
        p = cert.polynomial
        assert sturm_count(p, RationalInterval(lo - Fraction(1, 10**12),
                                               hi + Fraction(1, 10**12))) == 1


class TestEnumerate:
    def test_degree_4_trace_1(self):
        certs = enumerate_salem(4, 1, 1)
        got = [c.polynomial.coeffs for c in certs]
        assert got == [(1, -1, -3, -1, 1), (1, -1, -2, -1, 1), (1, -1, -1, -1, 1)]

    def test_brute_force_equivalence(self):
        # independent search over the full coefficient box
        expected = []
        for p in all_monic_reciprocal(4, 14):
            out = classify_salem(p)
            if isinstance(out, SalemCertificate) and out.trace == 1:
                expected.append(p.coeffs)
        got = [c.polynomial.coeffs for c in enumerate_salem(4, 1, 1)]
        assert got == sorted(expected)

    def test_extreme_window_empty(self):
        assert enumerate_salem(4, -100, -100) == []

    def test_one_sturm_chain_per_layout_test(self, monkeypatch):
        # both trace-root counts of a candidate share one Sturm chain
        calls = {"chain": 0, "trace": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(intpoly, "_sturm_chain", counted("chain", intpoly._sturm_chain))
        monkeypatch.setattr(salem_module, "trace_polynomial",
                            counted("trace", salem_module.trace_polynomial))
        for t in range(-2, 3):
            enumerate_salem(4, t, t)
        assert calls["trace"] > 0
        assert calls["chain"] == calls["trace"]

    def test_odd_degree_rejected(self):
        with pytest.raises(OddDegreeError):
            enumerate_salem(3, 0, 5)

    def test_degree_bound(self):
        with pytest.raises(DegreeBoundError):
            enumerate_salem(14, 0, 0)

    def test_degree_six_window(self):
        certs = enumerate_salem(6, -1, 1)
        for c in certs:
            assert -1 <= c.trace <= 1
            assert c.degree == 6
            redo = classify_salem(c.polynomial)
            assert isinstance(redo, SalemCertificate)


DEGREE_SIX_WINDOW = [
    (1, -1, -7, -11, -7, -1, 1), (1, -1, -5, -7, -5, -1, 1), (1, -1, -4, -6, -4, -1, 1),
    (1, -1, -4, -5, -4, -1, 1), (1, -1, -3, -5, -3, -1, 1), (1, -1, -3, -4, -3, -1, 1),
    (1, -1, -3, -3, -3, -1, 1), (1, -1, -2, -4, -2, -1, 1), (1, -1, -2, -3, -2, -1, 1),
    (1, -1, -2, -1, -2, -1, 1), (1, -1, -1, -3, -1, -1, 1), (1, -1, -1, -1, -1, -1, 1),
    (1, -1, -1, 0, -1, -1, 1), (1, -1, -1, 1, -1, -1, 1), (1, -1, 0, -1, 0, -1, 1),
    (1, 0, -4, -7, -4, 0, 1), (1, 0, -2, -3, -2, 0, 1), (1, 0, -1, -2, -1, 0, 1),
    (1, 0, -1, -1, -1, 0, 1),
]

# sha256 of the certificates of enumerate_salem(6, -1, 1), serialized by
# salem_certificate_to_json and dumps_certificate as below
DEGREE_SIX_DIGEST = "1f71fadb32780032c279db47265e0ca5ae4033584c548a7a7433efd2ec8536d5"


class TestTraceSignFilter:
    """enumerate_salem skips candidates with p(1) >= 0 or p(-1) <= 0."""

    def test_degrees_2_and_4_match_unfiltered_loop(self):
        windows = [(2, t, t) for t in range(-2, 7)] + [(4, t, t) for t in range(-2, 3)]
        windows += [(2, -2, 6), (4, -2, 2)]
        total = 0
        for degree, lo, hi in windows:
            got = enumerate_salem(degree, lo, hi)
            assert got == unfiltered_enumerate_salem(degree, lo, hi, DEFAULT_PRECISION)
            total += len(got)
        assert total > 20

    def test_degree_6_matches_unfiltered_loop(self):
        certs = enumerate_salem(6, -1, 1)
        assert [c.polynomial.coeffs for c in certs] == DEGREE_SIX_WINDOW
        text = dumps_certificate({"certs": [salem_certificate_to_json(c) for c in certs]})
        assert hashlib.sha256(text.encode()).hexdigest() == DEGREE_SIX_DIGEST
        assert certs == unfiltered_enumerate_salem(6, -1, 1, DEFAULT_PRECISION)

    def test_every_salem_trace_polynomial_passes(self):
        # the filter's condition on the trace polynomial q of degree s,
        # q(2) < 0 and (-1)^s q(-2) > 0, holds for every certificate
        certs = enumerate_salem(2, 3, 8) + enumerate_salem(4, -2, 4) + enumerate_salem(6, -1, 1)
        for cert in certs:
            q = trace_polynomial(cert.polynomial)
            assert q(2) < 0 < (-1) ** q.degree * q(-2)
            assert q(2) == cert.polynomial(1)
            assert (-1) ** q.degree * q(-2) == cert.polynomial(-1)


def pell_powers_inside(c1: int, c2: int, count: int) -> list[int]:
    """The k in [0, count) with c1 < (3 + 2 sqrt 2)^k < c2, for integers
    1 < c1 < c2, exactly: (3 + 2 sqrt 2)^k = x + y sqrt 2 with integers
    x, y >= 0, and x + y sqrt 2 against c is decided by squaring. The last
    power must lie above c2, so no k beyond count is missed."""
    def above(x, y, c):
        return c < x or 2 * y * y > (c - x) ** 2

    def below(x, y, c):
        return x < c and 2 * y * y < (c - x) ** 2

    inside = []
    x, y = 1, 0
    for k in range(count):
        if above(x, y, c1) and below(x, y, c2):
            inside.append(k)
        last = (x, y)
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    assert above(*last, c2)
    return inside


class TestPowerProducts:
    def setup_method(self):
        self.pell = classify_salem(P([1, -6, 1]))

    def test_n_zero(self):
        res = bounded_power_products(self.pell, self.pell,
                                     Fraction(2), Fraction(10), (0, 0))
        assert [(n, m) for n, m, _ in res] == [(0, 1)]

    def test_n_minus_one(self):
        res = bounded_power_products(self.pell, self.pell,
                                     Fraction(2), Fraction(10), (-1, -1))
        assert [(n, m) for n, m, _ in res] == [(-1, 2)]
        iv = res[0][2]
        assert iv.lo < Fraction("5.8285") and iv.hi > Fraction("5.8284")

    def test_bad_window(self):
        with pytest.raises(ValueError):
            bounded_power_products(self.pell, self.pell,
                                   Fraction(10), Fraction(2), (0, 0))

    def test_each_negative_n_has_m(self):
        # with beta < c2 / c1 every negative n admits at least one m
        c1, c2 = Fraction(3), Fraction(20)
        assert self.pell.salem_number_interval.hi < c2 / c1
        res = bounded_power_products(self.pell, self.pell, c1, c2, (-4, -1))
        covered = {n for n, _, _ in res}
        assert covered == {-4, -3, -2, -1}

    def test_bounds_beyond_float_range(self):
        # 10^400 overflows a float; the m window comes from exact tests
        c1, c2 = 10**400, 10**401
        res = bounded_power_products(self.pell, self.pell, Fraction(c1), Fraction(c2),
                                     (0, 1))
        inside = pell_powers_inside(c1, c2, 600)
        assert inside
        assert [(n, m) for n, m, _ in res] == [(n, k - n) for n in (0, 1) for k in inside]
        for _, _, value in res:
            assert c1 < value.lo and value.hi < c2

    def test_window_far_from_m_zero(self):
        # alpha^1000 beta^m, traces 3 and 4, enclosures of width 1/10: a
        # window of m read off float logs of the enclosure midpoints would be
        # about 6.5 steps of log beta off at this n and find nothing
        alpha = classify_salem(P([1, -3, 1]), Fraction(1, 10))
        beta = classify_salem(P([1, -4, 1]), Fraction(1, 10))
        res = bounded_power_products(alpha, beta, Fraction(2), Fraction(20), (1000, 1000))
        with mpmath.workdps(200):
            values = {m: ((3 + mpmath.sqrt(5)) / 2) ** 1000 * (2 + mpmath.sqrt(3)) ** m
                      for m in range(-760, -700)}
            # the ends lie outside the bounds, and no value comes within
            # 10^-100 of one, so 200 digits decide every m
            assert values[-760] < 2 and values[-701] > 20
            margin = min(abs(v - c) for v in values.values() for c in (2, 20))
            assert margin > mpmath.mpf(10) ** -100
            assert [m for m, v in values.items() if 2 < v < 20] == [-730, -729]
            assert [(n, m) for n, m, _ in res] == [(1000, -730), (1000, -729)]
            for _, m, iv in res:
                assert (mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= values[m]
                        <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator)

    @pytest.mark.parametrize("precision", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
    def test_coarse_enclosures_at_large_n(self, precision):
        # alpha = 3 + 2 sqrt 2 and beta = alpha^2, so alpha^n beta^m = alpha^(n + 2m),
        # against the exact oracle on Z[sqrt 2]; at precision 1/2 a window of
        # m read off float logs would miss every m at |n| near 10^3
        alpha = classify_salem(P([1, -6, 1]), precision)
        beta = classify_salem(P([1, -34, 1]), precision)
        for c1, c2 in ((2, 40), (10, 10**4)):
            inside = pell_powers_inside(c1, c2, 20)
            for n_range in ((-1000, -996), (996, 1000)):
                res = bounded_power_products(alpha, beta, Fraction(c1), Fraction(c2), n_range)
                expected = [(n, (k - n) // 2) for n in range(n_range[0], n_range[1] + 1)
                            for k in inside if (k - n) % 2 == 0]
                assert [(n, m) for n, m, _ in res] == expected

    def test_gallop_starts_at_the_previous_first_m(self, monkeypatch):
        # alpha = 3 + 2 sqrt 2 and beta = alpha^2 again, so the first m moves
        # by 0 or -1 per n: each n after the first costs its run of inside m
        # plus at most four interval tests, where a gallop from m = 0 to m
        # near 300 costs about 2 log2 300 = 16
        alpha = classify_salem(P([1, -6, 1]))
        beta = classify_salem(P([1, -34, 1]))
        c1, c2, n_range = 10, 10**4, (-600, -560)
        intervals, refinements = [], []
        interval, bisect = salem_module.RationalInterval, salem_module._bisect_enclosure

        def counted_interval(lo, hi):
            intervals.append(None)
            return interval(lo, hi)

        def counted_bisect(*args):
            refinements.append(None)  # each refinement builds one interval too
            return bisect(*args)

        monkeypatch.setattr(salem_module, "RationalInterval", counted_interval)
        monkeypatch.setattr(salem_module, "_bisect_enclosure", counted_bisect)
        tests = []
        for end in (n_range[0], n_range[1]):
            intervals.clear()
            refinements.clear()
            res = bounded_power_products(alpha, beta, Fraction(c1), Fraction(c2),
                                         (n_range[0], end))
            tests.append(len(intervals) - len(refinements))
        monkeypatch.undo()
        inside = pell_powers_inside(c1, c2, 20)
        expected = [(n, (k - n) // 2) for n in range(n_range[0], n_range[1] + 1)
                    for k in inside if (k - n) % 2 == 0]
        assert [(n, m) for n, m, _ in res] == expected
        later = n_range[1] - n_range[0]
        assert tests[1] - tests[0] <= len(expected) + 4 * later
        with mpmath.workdps(60):
            root = 3 + 2 * mpmath.sqrt(2)
            for n, m, iv in res:
                assert (mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= root ** (n + 2 * m)
                        <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator)

    def test_boundary_too_close_exhausts_budget(self, monkeypatch):
        import salemlat.salem as salem_mod

        monkeypatch.setattr(salem_mod, "REFINEMENT_BUDGET", 1)
        # c2 within 1e-9 of alpha: one refinement round cannot separate
        alpha = self.pell
        iv = salem_enclosure(alpha.polynomial, Fraction(1, 10**9))
        near = (iv.lo + iv.hi) / 2
        with pytest.raises(UndecidableComparisonError):
            bounded_power_products(alpha, alpha, Fraction(2), near, (0, 0))


class TestPrecision:
    @pytest.mark.parametrize("precision", [Fraction(0), Fraction(-1, 10)])
    def test_non_positive_precision_is_refused(self, precision):
        # a bisection down to a width below zero would never stop; the
        # rejected x^2 + x + 1 shows the check comes before any other work
        for call in (lambda: salem_enclosure(P([1, -3, 1]), precision),
                     lambda: classify_salem(P([1, -3, 1]), precision),
                     lambda: classify_salem(P([1, 1, 1]), precision),
                     lambda: enumerate_salem(4, 1, 1, precision)):
            with pytest.raises(ValueError, match="precision must be positive"):
                call()


class TestOneBisection:
    """The dyadic integer kernel against the Fraction bisections it replaced."""

    def test_salem_tables_match_the_fraction_bisection(self):
        # the degree-2, 4 and 6 tables, the degree-4 one window by window
        # as the benchmark draws it
        windows = [(2, -5, 5), *((4, t, t) for t in range(-2, 3)), (6, -1, 1)]
        checked = 0
        for degree, lo, hi in windows:
            for cert in enumerate_salem(degree, lo, hi):
                p, bound = cert.polynomial, cauchy_root_bound(cert.polynomial)
                assert cert.salem_number_interval == fraction_bisect_enclosure(
                    p, Fraction(1), bound, DEFAULT_PRECISION)
                # a coarse precision stops on lo > 1 alone
                for precision in (Fraction(100), Fraction(1, 10**12)):
                    assert salem_enclosure(p, precision) == fraction_bisect_enclosure(
                        p, Fraction(1), bound, precision), p
                checked += 1
        assert checked > 20

    def test_continuing_equals_restarting(self):
        # refinement continues from the held bracket; restarting from
        # [1, B] passes through it and reaches the same interval
        for p in (LEHMER, P([1, -6, 1]), poly_from_string("1,-1,-1,-1,1")):
            iv = salem_enclosure(p, DEFAULT_PRECISION)
            for _ in range(8):
                more = salem_module._bisect_enclosure(
                    lambda m, d: intpoly._horner(p.coeffs, m, d), iv.lo, iv.hi, iv.width / 4)
                assert more == salem_enclosure(p, iv.width / 4)
                assert more.width < iv.width / 4
                iv = more

    def test_root_midpoint_is_a_point_interval(self):
        # 2 is the midpoint of [1, 3] after the first step from B = 5; the
        # Fraction bisection shrank its bracket around 2 by an eighth instead
        two = Fraction(2)
        assert salem_enclosure(P([-4, 0, 1]), DEFAULT_PRECISION) == RationalInterval(two, two)
        assert fraction_bisect_enclosure(
            P([-4, 0, 1]), Fraction(1), Fraction(5), DEFAULT_PRECISION) == RationalInterval(
                Fraction(8388607, 4194304), Fraction(8388609, 4194304))
