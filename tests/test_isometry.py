import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy

from salemlat import intpoly as intpoly_module
from salemlat import isometry as isometry_module
from salemlat import linalg
from salemlat.intpoly import (
    IntPolynomial,
    count_real_roots,
    is_reciprocal,
    monic_irreducible_factors,
    squarefree_decomposition,
    strip_cyclotomic_factors,
    trace_polynomial,
)
from salemlat.isometry import (
    DeterminantError,
    FiniteOrder,
    GramViolationError,
    MixedSpectrum,
    NonCommutingError,
    ReducibleCharPolyError,
    SalemType,
    UnsupportedSpectrumError,
    char_poly,
    classify_isometry,
    entropy,
    express_in_powers,
    fixes_isotropic_ray,
    has_simple_spectrum,
    identity_isometry,
    is_primary_charpoly,
    order,
    reflection_in_vector,
    verify_isometry,
)
from salemlat.lattice import (
    GramLattice,
    SublatticeEmbedding,
    diagonal_lattice,
    direct_sum,
    hyperbolic_plane,
    signature,
)
from salemlat.rational import RationalInterval
from salemlat.salem import SalemCertificate, classify_salem

import property_suites as ps
from oracles import (
    dense_mat_mul,
    e_n_coxeter_polynomial,
    evaluate_in_powers,
    fraction_largest_real_root_above_one,
    mat_neg,
    random_isometries,
    restrict_to_embedding,
)

P = IntPolynomial.from_coeffs
U = hyperbolic_plane()
PELL_LAT = diagonal_lattice([2, -4])
A2 = GramLattice.from_rows([[2, 1], [1, 2]])


def pell() :
    return verify_isometry([[3, 4], [2, 3]], PELL_LAT)


class TestVerify:
    def test_identity(self):
        g = verify_isometry(linalg.identity(2), U)
        assert g.is_identity()

    def test_pell_form_preserved(self):
        g = pell()
        assert g.determinant() == 1

    def test_gram_violation_with_witness(self):
        with pytest.raises(GramViolationError) as err:
            verify_isometry([[2, 0], [0, 1]], U)
        assert err.value.witness == (0, 1)

    def test_determinant_error(self):
        lat = GramLattice.from_rows([[0, 0], [0, 0]])
        with pytest.raises(DeterminantError):
            verify_isometry([[2, 0], [0, 1]], lat)

    def test_degenerate_gram_still_needs_a_unit_determinant(self):
        # M^T G M = G holds for any M when G = 0, so only det M decides
        lat = GramLattice.from_rows([[0]])
        with pytest.raises(DeterminantError):
            verify_isometry([[2]], lat)
        assert verify_isometry([[-1]], lat).determinant() == -1

    def test_nondegenerate_gram_computes_no_determinant_of_m(self, monkeypatch):
        calls = []
        det_bareiss = linalg.det_bareiss

        def counted(a):
            calls.append(a)
            return det_bareiss(a)

        monkeypatch.setattr(linalg, "det_bareiss", counted)
        lat = diagonal_lattice([2, -4])
        for g in ([[3, 4], [2, 3]], [[17, 24], [12, 17]], [[-1, 0], [0, 1]]):
            verify_isometry(g, lat)
        # det G comes from the lattice's congruence run, and det M never
        assert calls == []

    def test_broken_matrices_keep_their_witnesses(self, suite_seed):
        # the witness is the first (i, j), row by row, where M^T G M and G
        # differ in a dense product over every entry
        rng = random.Random(suite_seed + 4)
        lattices = (U, A2, PELL_LAT, direct_sum(U, A2), diagonal_lattice([2, 2, -2]))
        broken = 0
        for k, lat in enumerate(lattices):
            if lat is PELL_LAT:
                isometries = [pell().power(e) for e in (1, 2, -3)]
            else:
                isometries = random_isometries(lat, 8, suite_seed + k)
            for g in isometries:
                m = [list(row) for row in g.matrix]
                m[rng.randrange(lat.rank)][rng.randrange(lat.rank)] += rng.choice((-2, -1, 1, 3))
                product = dense_mat_mul(dense_mat_mul(linalg.transpose(m), lat.gram), m)
                witness = next(((i, j) for i in range(lat.rank) for j in range(lat.rank)
                                if product[i][j] != lat.gram[i][j]), None)
                if witness is None:
                    assert verify_isometry(m, lat).lattice == lat
                    continue
                broken += 1
                with pytest.raises(GramViolationError) as err:
                    verify_isometry(m, lat)
                assert err.value.witness == witness
        assert broken >= 30


    def test_witness_on_perturbed_dense_suite_isometries(self, suite_seed):
        # products of up to six reflections on the property-suite lattices
        # (rank 2 to 10) and their cubes are dense, unlike the K3 generators;
        # the witness is still the first nonzero (i, j) of a dense M^T G M - G
        rng = random.Random(suite_seed + 41)
        broken = filled = total = 0
        for k, lat in enumerate(ps.HYPERBOLIC_LATTICES + ps.TWO_POSITIVE_LATTICES):
            for g in random_isometries(lat, 6, suite_seed + 50 + k):
                for m in (g.matrix, g.power(3).matrix):
                    filled += sum(1 for row in m for x in row if x)
                    total += lat.rank ** 2
                    m = [list(row) for row in m]
                    for _ in range(rng.randint(1, 2)):
                        m[rng.randrange(lat.rank)][rng.randrange(lat.rank)] += rng.choice((-1, 1, 2))
                    product = dense_mat_mul(dense_mat_mul(linalg.transpose(m), lat.gram), m)
                    witness = next(((i, j) for i in range(lat.rank) for j in range(lat.rank)
                                    if product[i][j] != lat.gram[i][j]), None)
                    if witness is None:
                        continue
                    broken += 1
                    with pytest.raises(GramViolationError) as err:
                        verify_isometry(m, lat)
                    assert err.value.witness == witness
        assert broken >= 80
        assert 2 * filled > total


class TestCharPoly:
    def test_identity_rank_2(self):
        assert char_poly(identity_isometry(U)) == P([1, -2, 1])

    def test_pell(self):
        assert char_poly(pell()) == P([1, -6, 1])

    def test_a2_rotation(self):
        g = verify_isometry([[-1, -1], [1, 0]], A2)
        assert char_poly(g) == P([1, 1, 1])


class TestOrder:
    def test_minus_identity(self):
        g = verify_isometry([[-1, 0], [0, -1]], U)
        assert order(g) == 2

    def test_a2_rotation_order_3(self):
        g = verify_isometry([[-1, -1], [1, 0]], A2)
        assert order(g) == 3
        assert g.power(3).is_identity()

    def test_pell_infinite(self):
        assert order(pell()) is None

    def test_unipotent_infinite(self):
        # all-cyclotomic spectrum but no finite power is the identity
        g = verify_isometry([[1, 1, -2], [0, 1, 0], [0, -1, 1]],
                            GramLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]]))
        assert order(g) is None

    def test_finite_order_power_check(self, suite_seed):
        # order() checks only g^L = I at the lcm L of the cyclotomic orders;
        # minimality comes from the eigenvalues, and this checks it: no
        # g^(k/p) is the identity, for any prime p dividing k
        finite = 0
        corpus = ps._corpus(ps.HYPERBOLIC_LATTICES + ps.TWO_POSITIVE_LATTICES, 180, suite_seed)
        for g in corpus + [g.power(3) for g in corpus]:
            k = order(g)
            if k is not None:
                finite += 1
                assert g.power(k).is_identity()
                for p in sympy.primefactors(k):
                    assert not g.power(k // p).is_identity(), (g.matrix, k, p)
        assert finite >= 20

    def test_one_power_and_one_charpoly(self, monkeypatch):
        # order() makes one matrix power, at the lcm, and no search below
        # it; classify_isometry reads a finite order off its own cyclotomic
        # split and never calls order()
        calls = Counter()

        def counted(name):
            f = getattr(linalg, name)

            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        for name in ("mat_pow", "charpoly_coeffs"):
            monkeypatch.setattr(linalg, name, counted(name))
        monkeypatch.setattr(isometry_module, "order",
                            lambda g: pytest.fail("classify_isometry called order()"))
        unipotent = verify_isometry([[1, 1, -2], [0, 1, 0], [0, -1, 1]],
                                    GramLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]]))
        for g, k in ((verify_isometry([[-1, -1], [1, 0]], A2), 3),
                     (verify_isometry([[-1, 0], [0, -1]], U), 2),
                     (identity_isometry(U), 1), (unipotent, None)):
            calls.clear()
            assert order(g) == k
            assert calls == {"mat_pow": 1, "charpoly_coeffs": 1}
            calls.clear()
            assert classify_isometry(g) == FiniteOrder(order=k)
            assert calls == {"mat_pow": 1, "charpoly_coeffs": 1}


class TestClassification:
    def test_identity_finite(self):
        out = classify_isometry(identity_isometry(U))
        assert isinstance(out, FiniteOrder)
        assert out.order == 1

    def test_pell_salem_quadratic(self):
        out = classify_isometry(pell())
        assert isinstance(out, SalemType)
        assert out.determinant == 1
        assert out.certificate.is_quadratic

    def test_block_mixed(self):
        big = direct_sum(diagonal_lattice([-2, -2]), PELL_LAT)
        m = [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 3, 4], [0, 0, 2, 3]]
        out = classify_isometry(verify_isometry(m, big))
        assert isinstance(out, MixedSpectrum)
        assert [f.coeffs for f in out.factors] == [(1, 1), (1, 1), (1, -6, 1)]

    def test_primary(self):
        assert is_primary_charpoly(identity_isometry(diagonal_lattice([2, 2, 2])))
        assert is_primary_charpoly(pell())
        big = direct_sum(A2, PELL_LAT)
        m = [[-1, -1, 0, 0], [1, 0, 0, 0], [0, 0, 3, 4], [0, 0, 2, 3]]
        assert not is_primary_charpoly(verify_isometry(m, big))

    def test_simple_spectrum(self):
        assert not has_simple_spectrum(identity_isometry(U))
        assert has_simple_spectrum(pell())
        assert has_simple_spectrum(verify_isometry([[-1, -1], [1, 0]], A2))


class TestEntropy:
    def test_identity_zero(self):
        iv = entropy(identity_isometry(U))
        assert iv.lo == 0 and iv.hi == 0

    def test_unipotent_zero(self):
        g = verify_isometry([[1, 1, -2], [0, 1, 0], [0, -1, 1]],
                            GramLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]]))
        iv = entropy(g)
        assert iv.lo == 0 and iv.hi == 0

    @pytest.mark.parametrize("precision", [Fraction(0), Fraction(-1, 10)])
    def test_non_positive_precision_is_refused(self, precision):
        for g in (pell(), identity_isometry(U)):
            with pytest.raises(ValueError, match="precision must be positive"):
                entropy(g, precision)

    def test_real_radius_beside_a_non_real_quadruple_is_refused(self):
        # signature (3, 0, 3) holds the (1, 1) block of the Pell pair and the
        # (2, 2) block of the quadruple of x^4 + x^3 + 3x^2 + x + 1, so the
        # radius 3 + 2 sqrt 2 is real, yet any non-real eigenvalue off the
        # circle is refused; pinned until roots are counted by modulus
        quartic = GramLattice.from_rows([[-2, -2, 5, 5], [-2, -2, -2, 5],
                                         [5, -2, -2, -2], [5, 5, -2, -2]])
        lattice = direct_sum(PELL_LAT, quartic)
        assert tuple(signature(lattice)) == (3, 0, 3)
        companion = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -3], [0, 0, 1, -1]]
        g = verify_isometry([[3, 4, 0, 0, 0, 0], [2, 3, 0, 0, 0, 0]]
                            + [[0, 0] + row for row in companion], lattice)
        moduli = sorted(abs(r) for r in mpmath.polyroots(char_poly(g).coeffs[::-1]))
        assert moduli[-1] == pytest.approx(3 + 2 * math.sqrt(2))
        assert all(abs(r.imag) > 0.1 for r in mpmath.polyroots([1, 1, 3, 1, 1]))
        assert 1.5 < moduli[-2] < 1.6
        with pytest.raises(UnsupportedSpectrumError,
                           match="^spectral radius attained at non-real eigenvalues$"):
            entropy(g)

    def test_pell_log(self):
        iv = entropy(pell(), Fraction(1, 10**6))
        expected = math.log(3 + 2 * math.sqrt(2))
        assert float(iv.lo) <= expected <= float(iv.hi)
        assert iv.width <= Fraction(1, 10**6)

    def test_power_rule(self):
        g = pell()
        base = entropy(g, Fraction(1, 10**8))
        for k in (1, 2, 3):
            iv = entropy(g.power(k), Fraction(1, 10**6))
            mid = k * base.midpoint
            assert iv.lo <= mid <= iv.hi

    def test_entropy_loads_no_mpmath(self):
        # the log is taken in integers: importing the package and the CLI
        # and taking an entropy load no mpmath, and a fresh process gives
        # the same enclosure as this one
        code = (
            "import sys\n"
            "import salemlat, salemlat.cli\n"
            "from salemlat.isometry import entropy, verify_isometry\n"
            "from salemlat.lattice import diagonal_lattice\n"
            "h = entropy(verify_isometry([[3, 4], [2, 3]], diagonal_lattice([2, -4])))\n"
            "print('mpmath' in sys.modules, h.lo, h.hi)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out[0] == "False"
        iv = entropy(pell())
        assert (Fraction(out[1]), Fraction(out[2])) == (iv.lo, iv.hi)

    @pytest.mark.parametrize("prec", [20, 200])
    def test_independent_of_the_mpmath_precision(self, prec, monkeypatch):
        # no process-global working precision reaches the enclosure
        before = entropy(pell())
        monkeypatch.setattr(mpmath.mp, "prec", prec)
        assert entropy(pell()) == before

    def test_concurrent_calls_agree(self):
        # nothing process-global is read or written: threads that switch
        # every microsecond get the single-threaded enclosures
        g = pell()
        precisions = (Fraction(1, 10**6), Fraction(1, 10**40))
        want = [entropy(g, p) for p in precisions]
        got = []

        def work():
            got.append([[entropy(g, p) for p in precisions] for _ in range(300)])

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want] * 300] * 4

    @pytest.mark.parametrize("k", [16, 20, 40])
    def test_fine_precision_contains_the_log(self, k):
        # each end is rounded at the bits of the precision, not again at 53
        precision = Fraction(1, 10**k)
        iv = entropy(pell(), precision)
        assert iv.width <= precision
        with mpmath.workprec(400):
            log = mpmath.log(3 + 2 * mpmath.sqrt(2))
            lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
            hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
            assert lo < log < hi

    def test_enclosures_match_the_fraction_bisection(self, suite_seed, monkeypatch):
        # the radius enclosures that entropy takes logs of, from Sturm counts
        # on one trace polynomial, against the Fraction Sturm bisection on p
        # and its mirror p(-x) that they replaced, over the property-suite
        # isometries; some sides hold two roots above 1, so the Sturm phase
        # of the oracle isolates one
        corpus = ps._corpus(ps.HYPERBOLIC_LATTICES + ps.TWO_POSITIVE_LATTICES, 90, suite_seed)
        corpus += ps._salem_pool(suite_seed)
        ends, log_nearest = [], isometry_module._log_nearest

        def recorded(x, bits):
            ends.append(x)
            return log_nearest(x, bits)

        monkeypatch.setattr(isometry_module, "_log_nearest", recorded)
        checked = 0
        for g in corpus:
            remainder, _ = strip_cyclotomic_factors(char_poly(g))
            mirror = P([-c if i % 2 else c for i, c in enumerate(remainder.coeffs)])
            # refused exactly for a non-reciprocal remainder or a squarefree
            # part whose trace polynomial has a non-real root
            refused = remainder.degree > 0 and (not is_reciprocal(remainder) or any(
                count_real_roots(trace_polynomial(part)) != part.degree // 2
                for part, _ in squarefree_decomposition(remainder)))
            for precision in (Fraction(1, 10**6), Fraction(1, 10**12)):
                ends.clear()
                try:
                    entropy(g, precision)
                except UnsupportedSpectrumError:
                    assert refused and ends == []
                    continue
                assert not refused
                # one (lo, hi) pair per round of the log loop, each round
                # at a sixteenth of the root precision before
                root_precision = precision / 4
                for lo, hi in zip(ends[::2], ends[1::2]):
                    sides = [fraction_largest_real_root_above_one(side, root_precision)
                             for side in (remainder, mirror)]
                    sides = [iv for iv in sides if iv is not None]
                    assert (lo, hi) == (max(iv.lo for iv in sides), max(iv.hi for iv in sides))
                    root_precision /= 16
                    checked += 1
        assert checked > 50

    def test_negative_salem_side(self):
        g = pell()
        neg = verify_isometry(mat_neg(g.matrix), PELL_LAT)
        iv = entropy(neg, Fraction(1, 10**6))
        expected = math.log(3 + 2 * math.sqrt(2))
        assert float(iv.lo) <= expected <= float(iv.hi)


def coxeter_element(n):
    """w_n, the product of the n simple reflections of E_n = T_{2,3,n-3}:
    minus the Cartan matrix of the star with arms of 1, 2 and n - 4 nodes
    around node 0, signature (1, n - 1) from n = 10 on."""
    edges = [(0, 1), (0, 2), (2, 3), (0, 4)] + [(i, i + 1) for i in range(4, n - 1)]
    gram = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    lat = GramLattice.from_rows(gram)
    w = identity_isometry(lat)
    for i in range(n):
        w = w.compose(reflection_in_vector(lat, tuple(int(i == j) for j in range(n))))
    return w


def mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


class TestCoxeterElements:
    """The E_n Coxeter elements, whose Salem factors reach degree 28
    (McMullen, Publ. Math. IHES 95, 2002)."""

    @pytest.mark.parametrize("n", range(9, 31))
    def test_spectrum_and_entropy(self, n):
        w = coxeter_element(n)
        assert char_poly(w) == e_n_coxeter_polynomial(n)
        kind = classify_isometry(w)
        if n == 9:
            assert isinstance(kind, FiniteOrder)
            assert entropy(w) == RationalInterval(Fraction(0), Fraction(0))
            return
        if n in (10, 16, 20, 22, 26, 28):
            assert isinstance(kind, SalemType)
            cert = kind.certificate
        else:
            assert isinstance(kind, MixedSpectrum)
            certs = [c for c in (classify_salem(f) for f in kind.factors if f.degree >= 2)
                     if isinstance(c, SalemCertificate)]
            assert len(certs) == 1
            cert = certs[0]
        iv, cube = entropy(w), entropy(w.power(3))
        assert cube.lo <= 3 * iv.hi and 3 * iv.lo <= cube.hi
        with mpmath.workdps(50):
            salem = cert.salem_number_interval
            assert mp(iv.lo) <= mpmath.log(mp(salem.hi))
            assert mpmath.log(mp(salem.lo)) <= mp(iv.hi)

    def test_entropy_increases_toward_the_plastic_number(self):
        # lambda(E_n) increases with n toward the real root of x^3 - x - 1
        ivs = [entropy(coxeter_element(n), Fraction(1, 10**12)) for n in range(10, 31)]
        assert all(a.hi < b.lo for a, b in zip(ivs, ivs[1:]))
        with mpmath.workdps(50):
            assert mp(ivs[-1].hi) < mpmath.log(mpmath.mpf("1.3248"))

    def test_e_28_needs_no_kronecker_search(self, monkeypatch):
        # E_28 is irreducible; mod 13 it splits as 2 + 2 + 24, which leaves
        # no proper factor degree open, so no search runs
        def no_search(p, d):
            raise AssertionError(f"Kronecker search at degree {d}")

        monkeypatch.setattr(intpoly_module, "_kronecker_factor", no_search)
        p = e_n_coxeter_polynomial(28)
        assert monic_irreducible_factors(p) == [(p, 1)]
        assert is_primary_charpoly(coxeter_element(28))


class TestExpressInPowers:
    def test_square(self):
        g = pell()
        coeffs = express_in_powers(g, g.power(2))
        assert evaluate_in_powers(g, coeffs) == tuple(
            tuple(Fraction(x) for x in row) for row in g.power(2).matrix)

    def test_identity_is_one(self):
        g = pell()
        coeffs = express_in_powers(g, identity_isometry(PELL_LAT))
        assert coeffs == (Fraction(1), Fraction(0))

    def test_inverse_via_trace(self):
        g = pell()
        coeffs = express_in_powers(g, g.inverse())
        assert coeffs == (Fraction(6), Fraction(-1))

    def test_non_commuting(self):
        lat = diagonal_lattice([2, 2])
        swap = verify_isometry([[0, 1], [1, 0]], lat)
        flip = verify_isometry([[1, 0], [0, -1]], lat)
        with pytest.raises(NonCommutingError):
            express_in_powers(swap, flip)

    def test_commutation_reads_no_dense_product(self, suite_seed, monkeypatch):
        # express_in_powers decides ab = ba by _commute on the sparse views
        # of a - I and b - I, which agrees with the dense products and makes
        # no mat_mul call: a non-commuting pair raises before any product
        isometries = ps._corpus(ps.HYPERBOLIC_LATTICES[1:4], 24, suite_seed + 43)
        pairs = [(a, b) for a in isometries for b in isometries if a.lattice == b.lattice]
        pairs += [(g, g.power(2)) for g in isometries]
        dense = [dense_mat_mul(a.matrix, b.matrix) == dense_mat_mul(b.matrix, a.matrix)
                 for a, b in pairs]
        assert True in dense and False in dense
        products = []
        mat_mul = linalg.mat_mul
        monkeypatch.setattr(linalg, "mat_mul",
                            lambda a, b: products.append(1) or mat_mul(a, b))
        assert [isometry_module._commute(a, b) for a, b in pairs] == dense
        f, g = pairs[dense.index(False)]
        with pytest.raises(NonCommutingError):
            express_in_powers(f, g)
        assert products == []

    def test_reducible_rejected(self):
        g = identity_isometry(U)
        with pytest.raises(ReducibleCharPolyError):
            express_in_powers(g, g)


class TestIsotropicRay:
    def test_identity_fixes(self):
        lat = GramLattice.from_rows([[0, 1], [1, 0]])
        assert fixes_isotropic_ray(identity_isometry(lat), (1, 0))

    def test_minus_identity_does_not(self):
        lat = GramLattice.from_rows([[0, 1], [1, 0]])
        g = verify_isometry([[-1, 0], [0, -1]], lat)
        assert not fixes_isotropic_ray(g, (1, 0))

    def test_non_isotropic_rejected(self):
        with pytest.raises(ValueError):
            fixes_isotropic_ray(identity_isometry(A2), (1, 0))


class TestReflectionsAndRestriction:
    def test_reflection_is_involution(self):
        s = reflection_in_vector(A2, (1, 0))
        assert s.power(2).is_identity()
        assert s.determinant() == -1

    def test_restriction_to_invariant_block(self):
        big = direct_sum(A2, PELL_LAT)
        m = [[-1, -1, 0, 0], [1, 0, 0, 0], [0, 0, 3, 4], [0, 0, 2, 3]]
        g = verify_isometry(m, big)
        emb = SublatticeEmbedding.from_rows(big, [[0, 0, 1, 0], [0, 0, 0, 1]])
        restr = restrict_to_embedding(g, emb)
        assert restr.matrix == ((3, 4), (2, 3))

    def test_non_invariant_rejected(self):
        big = direct_sum(A2, PELL_LAT)
        m = [[-1, -1, 0, 0], [1, 0, 0, 0], [0, 0, 3, 4], [0, 0, 2, 3]]
        g = verify_isometry(m, big)
        emb = SublatticeEmbedding.from_rows(big, [[1, 0, 0, 0]])
        with pytest.raises(ValueError):
            restrict_to_embedding(g, emb)
