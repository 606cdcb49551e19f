import random
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from salemlat.intpoly import (
    DegreeBoundError,
    EndpointRootError,
    IntPolynomial,
    NotReciprocalError,
    OddDegreeError,
    SturmContext,
    _divisors_signed,
    _factorize,
    _monic_interpolation,
    _pseudo_divmod,
    _sturm_chain,
    count_real_roots,
    count_roots_outside_unit_circle,
    cyclotomic_order,
    cyclotomic_polynomial,
    euler_phi,
    gcd_poly,
    is_cyclotomic_product,
    is_irreducible_over_integers,
    is_reciprocal,
    monic_irreducible_factors,
    poly_from_string,
    squarefree_decomposition,
    strip_cyclotomic_factors,
    sturm_count,
    trace_polynomial,
)
from salemlat.rational import RationalInterval

from oracles import (
    divides_x_power_minus_one,
    e_n_coxeter_polynomial,
    fraction_divmod,
    fraction_value,
    lagrange_interpolate_monic,
    sympy_divmod,
    sympy_exact_quotient,
    sympy_factor_multiset,
    sympy_factorint,
    sympy_is_squarefree,
    sympy_primitive_gcd,
    sympy_real_root_count,
    sympy_real_roots_between,
    sympy_signed_divisors,
    sympy_sturm_sequence,
)

P = IntPolynomial.from_coeffs


def interval(a, b):
    return RationalInterval(Fraction(a), Fraction(b))


class TestArithmetic:
    def test_mul_and_exact_div_roundtrip(self):
        a = P([1, 2, 3])
        b = P([-4, 0, 1, 5])
        assert (a * b).exact_div(b) == a

    def test_parse(self):
        assert poly_from_string("1,-1,-1,-1,1").coeffs == (1, -1, -1, -1, 1)

    def test_derivative(self):
        assert P([5, 0, 3]).derivative() == P([0, 6])


class TestReciprocal:
    def test_salem_quartic_is_reciprocal(self):
        assert is_reciprocal(poly_from_string("1,-1,-1,-1,1"))

    def test_non_palindrome(self):
        assert not is_reciprocal(P([2, -3, 1]))

    def test_constant_degenerate_palindrome(self):
        assert is_reciprocal(P([1]))


class TestSturm:
    def test_sqrt2_in_0_2(self):
        assert sturm_count(P([-2, 0, 1]), interval(0, 2)) == 1

    def test_no_real_roots(self):
        assert sturm_count(P([1, 0, 1]), interval(-10, 10)) == 0

    def test_quadratic_root_location(self):
        # y^2 - y - 3 has roots (1 +- sqrt(13)) / 2, only (1 + sqrt 13)/2 in (2, 10)
        assert sturm_count(P([-3, -1, 1]), interval(2, 10)) == 1
        assert sturm_count(P([-3, -1, 1]), interval(-10, 2)) == 1

    def test_endpoint_root_error(self):
        with pytest.raises(EndpointRootError):
            sturm_count(P([-4, 0, 1]), interval(2, 5))

    def test_count_all_real(self):
        assert count_real_roots(P([-3, -1, 1])) == 2
        assert count_real_roots(P([1, 0, 1])) == 0


def random_poly(rng, max_degree, bound=9):
    while True:
        p = P([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_degree + 1))])
        if not p.is_zero:
            return p


class TestKernelsAgainstSympy:
    def test_divmod_by(self, suite_seed):
        rng = random.Random(suite_seed + 10)
        for _ in range(80):
            f, g = random_poly(rng, 8), random_poly(rng, 4)
            assert f.divmod_by(g) == sympy_divmod(f, g)

    def test_gcd_poly(self, suite_seed):
        rng = random.Random(suite_seed + 11)
        for _ in range(60):
            common = random_poly(rng, 3, 4)
            f = random_poly(rng, 4, 5) * common
            g = random_poly(rng, 4, 5) * common
            assert gcd_poly(f, g) == sympy_primitive_gcd(f, g)
            assert gcd_poly(g, f) == gcd_poly(f, g)

    def test_count_real_roots(self, suite_seed):
        polys = polys_with_real_roots(random.Random(suite_seed + 12))
        for p in islice((p for p in polys if sympy_is_squarefree(p)), 60):
            assert count_real_roots(p) == sympy_real_root_count(p)

    def test_sturm_squarefree(self, suite_seed):
        # the polynomials of test_count_real_roots and their squares: the
        # chain ends in gcd(p, p'), a constant exactly when p is squarefree
        for p in islice(polys_with_real_roots(random.Random(suite_seed + 12)), 60):
            assert SturmContext(p).squarefree == sympy_is_squarefree(p), p
            assert not SturmContext(p * p).squarefree, p
        assert SturmContext(P([5])).squarefree

    def test_factorize_and_divisors(self, suite_seed):
        # 1..20000 against sympy; then 300 seeded |n| < 10^24 drawn as
        # products of known primes, so that their factorizations come with
        # them, among them products of two primes of 10^11 to 10^12, beyond
        # any trial division, and primes of 13 to 19 digits, where the fixed
        # Miller-Rabin bases must accept them; sympy cross-checks 20 draws
        for n in range(1, 20001):
            assert _factorize(n) == sympy_factorint(n), n
            assert _divisors_signed(n) == sympy_signed_divisors(n), n
        rng = random.Random(suite_seed + 13)
        draws = known_factorizations(rng, 300)
        assert sum(len(f) == 2 and min(f) > 10**11 for _, f in draws) >= 3
        assert sum(len(f) == 1 and max(f) > 10**12 for _, f in draws) >= 20
        assert sum(len(f) > 1 and max(f) > 10**12 for _, f in draws) >= 20
        for n, factors in draws:
            assert 0 < abs(n) < 10**24
            assert _factorize(n) == factors, n
            assert _divisors_signed(n) == signed_divisors(factors), n
        for n, factors in rng.sample(draws, 20):
            assert sympy_factorint(n) == factors, n
            assert sympy_signed_divisors(n) == signed_divisors(factors), n


def known_factorizations(rng, count):
    """count seeded (n, {prime: exponent of n}) with |n| < 10^24 and either
    sign. The first three n are products of two distinct primes of 10^11 to
    10^12, the fourth -p q for the two primes after 10^11; the next 40 are a
    prime of 13 to 19 digits, every other one times one to four primes
    below 100 while n stays below 10^24; every other n multiplies up to six
    primes of 1 to 9 digits (a drawn prime repeats with chance 1/4), each
    kept only while n stays below a bound of 1 to 24 digits. The primes
    come from sympy.nextprime and prevprime, which are exact below 2^64.
    """
    p = sympy.nextprime(10**11)
    out = [(-p * sympy.nextprime(p), {p: 1, sympy.nextprime(p): 1})]
    while len(out) < 4:
        p, q = (sympy.nextprime(rng.randrange(10**11, 10**12 - 10**4)) for _ in range(2))
        if p != q:
            out.insert(0, (p * q, {p: 1, q: 1}))
    while len(out) < 44:
        digits = rng.randint(13, 19)
        p = sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits - 10**4))
        n, factors = p, {p: 1}
        for _ in range(rng.randint(1, 4) if len(out) % 2 else 0):
            q = sympy.prevprime(rng.randint(3, 100))
            if n * q < 10**24:
                n *= q
                factors[q] = factors.get(q, 0) + 1
        out.append((n * rng.choice([-1, 1]), factors))
    while len(out) < count:
        bound = 10 ** rng.randint(1, 24)
        n, factors = 1, {}
        for _ in range(rng.randint(1, 6)):
            if factors and rng.random() < 0.25:
                p = rng.choice(sorted(factors))
            else:
                p = sympy.nextprime(rng.randrange(10 ** rng.randint(0, 9)))
            if n * p < bound:
                n *= p
                factors[p] = factors.get(p, 0) + 1
        out.append((n * rng.choice([-1, 1]), factors))
    return [(n, {int(p): e for p, e in sorted(f.items())}) for n, f in out]


def signed_divisors(factors):
    """The divisors of the n with these prime exponents, with both signs,
    ordered by absolute value, d before -d."""
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return [s for d in sorted(divisors) for s in (d, -d)]


def polys_with_real_roots(rng):
    """Random polynomials of degree >= 1 times distinct linear factors, endlessly."""
    while True:
        # distinct integer roots guarantee real roots are present
        roots = rng.sample(range(-6, 7), rng.randint(0, 4))
        p = random_poly(rng, 4, 6)
        for r in roots:
            p = p * P([-r, 1])
        if p.degree >= 1:
            yield p


def leading_mixed_poly(rng, degree, bound=7):
    """Random polynomial of the given degree whose leading coefficient is
    drawn from +-1, +-2, +-3, +-5, so negative and non-unit leads occur."""
    lead = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
    return P([rng.randint(-bound, bound) for _ in range(degree)] + [lead])


def squarefree_inputs(rng, count):
    out = []
    while len(out) < count:
        p = leading_mixed_poly(rng, rng.randint(1, 6))
        if rng.random() < 0.5:
            # rational roots a/b make endpoints and sign tests land on roots
            p = p * P([rng.randint(-4, 4), rng.choice([-3, -2, 1, 2, 3])])
        if p.degree >= 1 and sympy_is_squarefree(p):
            out.append(p)
    return out


def sign(x) -> int:
    return (x > 0) - (x < 0)


class TestIntegerCore:
    """The integer pseudo-division, remainder sequence and Horner sign."""

    def test_inputs_have_negative_and_non_unit_leads(self, suite_seed):
        leads = {p.leading for p in squarefree_inputs(random.Random(suite_seed + 20), 80)}
        assert any(c < 0 for c in leads) and any(abs(c) > 1 for c in leads)

    def test_sturm_chain_against_sympy(self, suite_seed):
        # sympy divides p by its leading coefficient first, so each of its
        # terms is ours times a rational whose sign is that of lc(p)
        for p in squarefree_inputs(random.Random(suite_seed + 20), 80):
            ours, theirs = _sturm_chain(p), sympy_sturm_sequence(p)
            assert len(ours) == len(theirs), p
            for mine, ref in zip(ours, theirs):
                assert len(mine) == len(ref), p
                ratio = Fraction(mine[-1]) / ref[-1]
                assert sign(ratio) == sign(p.leading), p
                assert [ratio * c for c in ref] == mine, p

    def test_sturm_count_against_sympy_real_roots(self, suite_seed):
        rng = random.Random(suite_seed + 21)
        checked = raised = 0
        for p in squarefree_inputs(rng, 80):
            ctx = SturmContext(p)
            for _ in range(3):
                lo = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
                hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 6))
                if fraction_value(p, lo) == 0 or fraction_value(p, hi) == 0:
                    with pytest.raises(EndpointRootError):
                        ctx.count(lo, hi)
                    raised += 1
                    continue
                expected = sympy_real_roots_between(p, lo, hi)
                assert ctx.count(lo, hi) == expected, (p, lo, hi)
                assert sturm_count(p, RationalInterval(lo, hi)) == expected
                checked += 1
            assert count_real_roots(p) == sympy_real_root_count(p)
        assert checked > 150

    def test_gcd_poly_with_zero(self):
        f = P([2, -4, 6])
        assert gcd_poly(f, IntPolynomial.zero()) == P([1, -2, 3])
        assert gcd_poly(IntPolynomial.zero(), -f) == P([1, -2, 3])
        assert gcd_poly(IntPolynomial.zero(), IntPolynomial.zero()).is_zero
        assert gcd_poly(P([6]), P([4])) == P([1])

    def test_exact_div_against_sympy(self, suite_seed):
        rng = random.Random(suite_seed + 23)
        exact = 0
        for _ in range(120):
            g = leading_mixed_poly(rng, rng.randint(0, 3), 5)
            if rng.random() < 0.5:
                f = g * leading_mixed_poly(rng, rng.randint(0, 3), 5)
            else:
                f = leading_mixed_poly(rng, rng.randint(0, 6), 5)
            if rng.random() < 0.3:
                g = g.scale(rng.choice([-2, 3]))  # a non-primitive divisor
            expected = sympy_exact_quotient(f, g)
            assert g.divides(f) == (sympy_divmod(f, g)[1] == [])
            if expected is None:
                with pytest.raises(ValueError):
                    f.exact_div(g)
            else:
                assert f.exact_div(g) == expected
                exact += 1
        assert exact > 30

    def test_exact_div_messages(self):
        with pytest.raises(ValueError, match="not exact"):
            P([1, 0, 1]).exact_div(P([-1, 1]))
        with pytest.raises(ValueError, match="not integral"):
            P([1, 1]).exact_div(P([2, 2]))
        with pytest.raises(ZeroDivisionError):
            P([1, 1]).exact_div(IntPolynomial.zero())

    def test_divmod_by_against_fraction_oracle(self, suite_seed):
        rng = random.Random(suite_seed + 24)
        for _ in range(120):
            f = random_poly(rng, 9) if rng.random() < 0.8 else IntPolynomial.zero()
            g = leading_mixed_poly(rng, rng.randint(0, 4))
            assert f.divmod_by(g) == fraction_divmod(f, g)

    def test_pseudo_divmod_identity(self, suite_seed):
        rng = random.Random(suite_seed + 25)
        for _ in range(120):
            f, g = random_poly(rng, 9), leading_mixed_poly(rng, rng.randint(0, 4))
            m, quot, rem = _pseudo_divmod(f.coeffs, g.coeffs)
            assert m > 0
            assert len(rem) < len(g.coeffs) and (not rem or rem[-1] != 0)
            assert f.scale(m) == P(quot) * g + P(rem)
            integral = all(q.denominator == 1 for q in fraction_divmod(f, g)[0])
            assert (m == 1) == integral
            if abs(g.leading) == 1:
                assert m == 1

    def test_sign_at_against_fraction_value(self, suite_seed):
        rng = random.Random(suite_seed + 26)
        zeros = 0
        for _ in range(100):
            a, b = rng.randint(-9, 9), rng.randint(1, 7)
            p = random_poly(rng, 6, 20)
            if rng.random() < 0.5:
                p = p * P([-a, b])  # a root at a/b
            points = [Fraction(a, b), Fraction(0), Fraction(-rng.randint(1, 50), rng.randint(1, 9)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 9)), Fraction(-3)]
            for x in points:
                expected = sign(fraction_value(p, x))
                assert p.sign_at(x) == expected, (p, x)
                zeros += expected == 0
        assert zeros > 30

    def test_sign_at_integers_and_zero_polynomial(self):
        assert P([-2, 0, 1]).sign_at(2) == 1
        assert P([-4, 0, 1]).sign_at(-2) == 0
        assert IntPolynomial.zero().sign_at(Fraction(1, 3)) == 0

    def test_endpoint_root_error_at_rational_roots(self):
        p = P([1, -2]) * P([-3, 0, 1])  # roots 1/2 and +-sqrt(3), lead -2
        with pytest.raises(EndpointRootError) as info:
            sturm_count(p, interval(Fraction(1, 2), 3))
        assert info.value.endpoint == Fraction(1, 2)
        with pytest.raises(EndpointRootError) as info:
            sturm_count(p, interval(-5, Fraction(1, 2)))
        assert info.value.endpoint == Fraction(1, 2)
        assert sturm_count(p, interval(-5, Fraction(1, 3))) == 1
        assert sturm_count(p, interval(-5, 5)) == 3


class TestIrreducibility:
    def test_quadratic_cyclotomic(self):
        assert is_irreducible_over_integers(P([1, 1, 1]))

    def test_x4_minus_1(self):
        assert not is_irreducible_over_integers(P([-1, 0, 0, 0, 1]))

    def test_quartic_reciprocal(self):
        assert is_irreducible_over_integers(P([1, -1, -2, -1, 1]))

    def test_degree_bound(self):
        with pytest.raises(DegreeBoundError):
            is_irreducible_over_integers(P([1] + [0] * 24 + [1]))

    def test_against_sympy_on_random_products(self, suite_seed):
        rng = random.Random(suite_seed)
        small = [P([1, 1]), P([-1, 1]), P([1, 1, 1]), P([1, -1, 1]),
                 P([1, -6, 1]), P([1, -1, -1, -1, 1]), P([2, 3, 1, 1]),
                 P([1, 0, 0, 1, 1]), P([-1, -1, 0, 0, 1])]
        for _ in range(40):
            parts = [rng.choice(small) for _ in range(rng.randint(1, 3))]
            prod = P([1])
            for part in parts:
                prod = prod * part
            expected = sympy_factor_multiset(prod)
            got = sorted(
                (f.coeffs, m) for f, m in monic_irreducible_factors(prod))
            assert got == expected
            assert is_irreducible_over_integers(prod) == (len(expected) == 1
                                                          and expected[0][1] == 1)

    def test_against_sympy_factor_list_on_random_monic_products(self, suite_seed):
        # random factors of degree up to 4 reach the Kronecker search
        rng = random.Random(suite_seed + 23)
        split = 0
        for _ in range(60):
            prod = P([1])
            for _ in range(rng.randint(1, 3)):
                prod = prod * P([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
            expected = sympy_factor_multiset(prod)
            got = sorted(
                (f.coeffs, m) for f, m in monic_irreducible_factors(prod))
            assert got == expected
            assert is_irreducible_over_integers(prod) == (
                len(expected) == 1 and expected[0][1] == 1)
            split += sum(1 for f, _ in expected if len(f) > 2) >= 2
        assert split > 0

    @pytest.mark.parametrize("n", [9, 10, 11, 12, 16, 20, 22, 24, 25, 28, 30])
    def test_coxeter_polynomials_of_e_n_against_sympy(self, n):
        # the Coxeter polynomial of E_n, (x^(n-2) (x^3 - x - 1) + x^3 + x^2 - 1)
        # / (x - 1): a Salem factor times cyclotomic ones for n >= 10, of
        # degree beyond the irreducibility bound at n = 25, 28 and 30
        p = e_n_coxeter_polynomial(n)
        assert p.degree == n
        got = sorted((f.coeffs, m) for f, m in monic_irreducible_factors(p))
        assert got == sympy_factor_multiset(p)


class TestMonicInterpolation:
    """Interpolation through the Vandermonde inverse against Lagrange in Fractions."""

    def test_against_lagrange(self, suite_seed):
        rng = random.Random(suite_seed + 21)
        outcomes = set()
        for _ in range(300):
            d = rng.randint(1, 6)
            points = rng.sample(range(-7, 8), d)
            values = [rng.randint(-40, 40) for _ in range(d)]
            ours = _monic_interpolation(points)(values)
            assert ours == lagrange_interpolate_monic(points, values)
            outcomes.add(ours is None)
        assert outcomes == {True, False}

    def test_recovers_monic_polynomials(self, suite_seed):
        rng = random.Random(suite_seed + 22)
        for _ in range(100):
            d = rng.randint(1, 6)
            g = P([rng.randint(-9, 9) for _ in range(d)] + [1])
            points = rng.sample(range(-7, 8), d)
            assert _monic_interpolation(points)([g(t) for t in points]) == g


class TestCyclotomic:
    def test_third_roots(self):
        assert is_cyclotomic_product(P([1, 1, 1]))
        assert is_cyclotomic_product(P([1, 1, 1]) * P([1, 1, 1]) * P([-1, 1]))

    def test_x_minus_one(self):
        assert is_cyclotomic_product(P([-1, 1]))

    def test_golden_ratio_square(self):
        assert not is_cyclotomic_product(P([1, -3, 1]))

    def test_orders(self):
        assert cyclotomic_order(P([1, 1, 1])) == 3
        assert cyclotomic_order(P([1, 1])) == 2
        assert cyclotomic_order(poly_from_string("1,-1,-1,-1,1")) is None

    def test_divisibility_cross_check(self):
        # stripping cyclotomic factors agrees with the p | x^k - 1 route
        samples = [P([1, 1, 1]), P([-1, 1]), P([1, 0, 1]), P([1, -3, 1]),
                   P([1, -1, 1]) * P([1, 1]), P([1, -6, 1]),
                   cyclotomic_polynomial(12) * cyclotomic_polynomial(5),
                   poly_from_string("1,-1,-1,-1,1"), P([0, 1]) * P([1, 1])]
        for p in samples:
            orders = [n for n, _ in strip_cyclotomic_factors(p)[1]]
            from math import lcm

            bound = lcm(*orders) if orders else 1
            assert is_cyclotomic_product(p) == divides_x_power_minus_one(
                p, bound if strip_cyclotomic_factors(p)[0].degree == 0 else bound + 4)

    def test_phi(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(66) == 20

    def test_phi_multiplicative(self):
        for a, b in [(3, 4), (5, 8), (7, 9), (11, 4)]:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_cyclotomic_degree_is_phi(self):
        for n in range(1, 40):
            assert cyclotomic_polynomial(n).degree == euler_phi(n)


class TestTracePolynomial:
    def test_x2_plus_1(self):
        assert trace_polynomial(P([1, 0, 1])) == P([0, 1])

    def test_x4_plus_1(self):
        assert trace_polynomial(P([1, 0, 0, 0, 1])) == P([-2, 0, 1])

    def test_salem_quartic(self):
        assert trace_polynomial(poly_from_string("1,-1,-1,-1,1")) == P([-3, -1, 1])

    def test_not_reciprocal(self):
        with pytest.raises(NotReciprocalError):
            trace_polynomial(P([2, -3, 1]))

    def test_odd_degree(self):
        with pytest.raises(OddDegreeError):
            trace_polynomial(P([1, 0, 0, 1]))

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_identity(self, half):
        # build a monic reciprocal p of even degree and verify
        # p(x) = x^n q(x + 1/x) as the exact identity
        # p = x^n q(x + 1/x)  <=>  p == sum q_k x^(n-k) (x^2+1)^k
        body = [1] + half + list(reversed(half[:-1])) + [1]
        p = P(body)
        if p.degree % 2 or not is_reciprocal(p) or not p.is_monic:
            return
        q = trace_polynomial(p)
        n = p.degree // 2
        acc = IntPolynomial.zero()
        x2p1 = P([1, 0, 1])
        for k, c in enumerate(q.coeffs):
            term = P([c])
            for _ in range(k):
                term = term * x2p1
            shift = [0] * (n - k) + list(term.coeffs)
            acc = acc + P(shift)
        assert acc == p


class TestSquarefreeAndCounting:
    def test_squarefree_decomposition(self):
        f = P([1, 1])  # x + 1
        g = P([1, -6, 1])
        prod = f * f * g
        parts = dict()
        for q, k in squarefree_decomposition(prod):
            parts[k] = q
        assert parts[2] == f
        assert parts[1] == g

    def test_count_outside_unit_circle(self):
        assert count_roots_outside_unit_circle(P([1, -6, 1])) == 1
        assert count_roots_outside_unit_circle(poly_from_string("1,-1,-1,-1,1")) == 1
        assert count_roots_outside_unit_circle(P([1, 1, 1])) == 0
        pell_sq = P([1, -6, 1]) * P([1, -6, 1])
        assert count_roots_outside_unit_circle(pell_sq) == 2
        unipotent = P([-1, 1]) * P([-1, 1])
        assert count_roots_outside_unit_circle(unipotent) == 0
