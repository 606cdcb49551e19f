import functools
import hashlib
import inspect
import random
import time
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
import sympy

from salemlat import k3 as k3_module
from salemlat import lattice as lattice_module
from salemlat import linalg
from salemlat.intpoly import MILLER_RABIN_BOUND, _is_probable_prime
from salemlat.isometry import (
    GramViolationError,
    LatticeIsometry,
    identity_isometry,
    reflection_in_vector,
    verify_isometry,
)
from salemlat.k3 import (
    DEFAULT_PRIMES,
    BoundExceededError,
    K3Sublattices,
    NonIntegralExtensionError,
    PeriodPoint,
    PrimeSelection,
    QuarticAlgebraElement,
    ShapeViolationError,
    _commute,
    _unit,
    alpha_map,
    build_phi,
    build_sublattices,
    extend_to_lambda,
    extension_order,
    group_rank_via_alpha,
    k3_lattice,
    minimal_primitive_sublattice,
    period_point,
    run_k3,
    torelli_certificate,
    verify_construction,
)
from salemlat.lattice import (
    GramLattice,
    LatticeClass,
    SublatticeEmbedding,
    classify,
    diagonal_lattice,
    discriminant_group,
    e8_minus_one,
    orthogonal_complement,
    signature,
)
from salemlat.serialize import dumps_certificate, report_to_json

from oracles import (
    dense_mat_mul,
    sympy_det,
    sympy_invariant_factors,
    sympy_mat_mul,
    sympy_rank,
)

TOY_L = GramLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]])

SMALL_PRIME_SELECTION = PrimeSelection(
    p=2, q=3, p_list=(7, 11, 13, 17, 19, 23, 29, 31),
    q_list=(37, 41, 43, 47, 53, 59, 61, 67))

# valid selections besides DEFAULT_PRIMES: every structural check passes
OTHER_VALID_SELECTIONS = (
    PrimeSelection(p=5, q=7, p_list=(41, 43, 47, 53, 59, 61, 67, 71),
                   q_list=(73, 79, 83, 89, 97, 101, 103, 107)),
    PrimeSelection(p=3, q=2, p_list=(101, 103, 107, 109, 113, 127, 131, 137),
                   q_list=(139, 149, 151, 157, 163, 167, 173, 179)),
)

ADVERSARIAL = PrimeSelection(
    p=29, q=37, p_list=(3, 5, 7, 11, 13, 17, 19, 23),
    q_list=(41, 43, 47, 53, 59, 61, 67, 71))


def scan_selections(seed, count):
    """Selections drawn like a scan: p, q from {2, 3, 5, 7}, scaling primes
    from [5, 400), definite or not."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p, q = rng.sample((2, 3, 5, 7), 2)
        scaling = rng.sample([x for x in sympy.primerange(5, 400) if x not in (p, q)], 16)
        out.append(PrimeSelection(p=p, q=q, p_list=tuple(scaling[:8]),
                                  q_list=tuple(scaling[8:])))
    return out


@pytest.fixture(scope="module")
def subs() -> K3Sublattices:
    return build_sublattices(DEFAULT_PRIMES)


@pytest.fixture(scope="module")
def full_report():
    return run_k3(DEFAULT_PRIMES)


class TestAmbient:
    def test_signature(self):
        assert tuple(signature(k3_lattice())) == (3, 0, 19)

    def test_unimodular_even(self):
        lam = k3_lattice()
        assert lam.even
        assert abs(lam.determinant()) == 1
        assert discriminant_group(lam).order == 1


class TestPrimeSelection:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PrimeSelection(p=2, q=2, p_list=(7, 11, 13, 17, 19, 23, 29, 31),
                           q_list=(37, 41, 43, 47, 53, 59, 61, 67))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            PrimeSelection(p=4, q=3, p_list=(7, 11, 13, 17, 19, 23, 29, 31),
                           q_list=(37, 41, 43, 47, 53, 59, 61, 67))

    def test_large_prime_accepted_quickly(self):
        start = time.monotonic()
        PrimeSelection(p=2**61 - 1, q=3, p_list=(7, 11, 13, 17, 19, 23, 29, 31),
                       q_list=(37, 41, 43, 47, 53, 59, 61, 67))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("composite", [
        3215031751,                  # strong pseudoprime to the bases 2, 3, 5, 7
        MILLER_RABIN_BOUND,          # strong pseudoprime to every base 2..37
    ])
    def test_pseudoprimes_rejected(self, composite):
        with pytest.raises(ValueError):
            PrimeSelection(p=composite, q=3, p_list=(7, 11, 13, 17, 19, 23, 29, 31),
                           q_list=(37, 41, 43, 47, 53, 59, 61, 67))

    def test_primality_against_sympy(self):
        assert all(_is_probable_prime(n) == sympy.isprime(n) for n in range(-2, 5000))

    def test_bound_is_a_miller_rabin_liar(self):
        # composite, yet passes the test: primes at or above it are refused
        assert _is_probable_prime(MILLER_RABIN_BOUND)
        assert not sympy.isprime(MILLER_RABIN_BOUND)

    def test_from_dict(self):
        data = {"p": 2, "q": 3,
                "p_list": [29, 31, 37, 41, 43, 47, 53, 59],
                "q_list": [61, 67, 71, 73, 79, 83, 89, 97]}
        assert PrimeSelection.from_dict(data) == DEFAULT_PRIMES


class TestSublattices:
    def test_ranks(self, subs):
        assert subs.n.rank == 19
        assert subs.l.rank == 20
        assert subs.t.rank == 3
        assert subs.tbar.rank == 2
        assert subs.nbar.rank == 18

    def test_classes(self, subs):
        assert classify(subs.n.induced_gram()) == LatticeClass.PARABOLIC
        assert classify(subs.l.induced_gram()) == LatticeClass.HYPERBOLIC
        assert classify(subs.nbar.induced_gram()) == LatticeClass.ELLIPTIC
        assert tuple(signature(subs.tbar.induced_gram())) == (2, 0, 0)

    def test_default_checks_pass(self):
        checks = verify_construction(DEFAULT_PRIMES)
        assert all(c.passed for c in checks), [
            (c.name, c.detail) for c in checks if not c.passed]

    def test_small_scaling_primes_fail_definiteness(self):
        # the e1 block pairs generators through (e1 - p f1, e1 - p_j v_1j) = -p,
        # so small scaling primes leave a positive direction inside Nbar
        checks = {c.name: c for c in verify_construction(SMALL_PRIME_SELECTION)}
        bad = checks["nbar_elliptic_rank_18"]
        assert not bad.passed
        assert bad.witness is not None
        subs_bad = build_sublattices(SMALL_PRIME_SELECTION)
        assert subs_bad.nbar.induced_gram().norm(bad.witness) > 0

    def test_tbar_from_t_is_the_complement_of_l(self, suite_seed):
        # Tbar is cut out of T by one 1 x 3 row; the direct route, the
        # complement of L in the ambient lattice, gives the same HNF
        for primes in (DEFAULT_PRIMES, SMALL_PRIME_SELECTION, ADVERSARIAL,
                       *scan_selections(suite_seed + 25, 4)):
            subs = build_sublattices(primes)
            assert subs.tbar == orthogonal_complement(subs.l)

    def test_adversarial_large_p_fails(self):
        checks = {c.name: c for c in verify_construction(ADVERSARIAL)}
        bad = checks["nbar_elliptic_rank_18"]
        assert not bad.passed
        witness = bad.witness
        assert witness is not None
        subs_bad = build_sublattices(ADVERSARIAL)
        assert subs_bad.nbar.induced_gram().norm(witness) > 0


class TestBlockCriterion:
    def test_closed_form_against_the_signature_of_nbar(self, suite_seed):
        # Nbar splits into the e1 block, spanned by e1 - p f1 and the
        # e1 - p_j v_1j, and the like e2 block. With D = diag(p_j) and C the
        # E8 Cartan matrix, the e1 block's Gram matrix is
        # [[-2p, -p 1^T], [-p 1, -D C D]], negative definite exactly when
        # its Schur complement is: sum_jk (C^-1)_jk / (p_j p_k) < 2 / p
        c_inv = linalg.fraction_inverse(linalg.mat_neg(e8_minus_one().gram))

        def criterion(p, scaling):
            return sum(c_inv[j][k] / (scaling[j] * scaling[k])
                       for j in range(8) for k in range(8)) < Fraction(2, p)

        rng = random.Random(suite_seed + 31)
        pool = list(sympy.primerange(5, 160))
        sides = Counter()
        for _ in range(40):
            p, q = rng.sample((2, 3, 5, 7), 2)
            scaling = rng.sample([x for x in pool if x not in (p, q)], 16)
            primes = PrimeSelection(p=p, q=q, p_list=tuple(scaling[:8]),
                                    q_list=tuple(scaling[8:]))
            gram = build_sublattices(primes).nbar.induced_gram().gram
            for block, base, scales in (((0, *range(2, 10)), p, primes.p_list),
                                        ((1, *range(10, 18)), q, primes.q_list)):
                sub = GramLattice(tuple(tuple(gram[i][j] for j in block) for i in block))
                definite = signature(sub) == (0, 0, 9)
                assert definite == criterion(base, scales), (base, scales)
                sides[definite] += 1
            nbar_definite = signature(GramLattice(gram)) == (0, 0, 18)
            assert nbar_definite == (criterion(p, primes.p_list)
                                     and criterion(q, primes.q_list))
        # seeded draws land on both sides of the bound
        assert sides[True] >= 10 and sides[False] >= 10


class TestBuildPhi:
    def test_toy_matches_hand_computation(self):
        phi = build_phi(1, TOY_L)
        assert phi.matrix == ((1, 1, -2), (0, 1, 0), (0, -1, 1))

    def test_toy_extension_order(self):
        phi = build_phi(1, TOY_L)
        assert extension_order(phi, TOY_L) == 1

    def test_identity_extension_order(self):
        assert extension_order(identity_isometry(TOY_L), TOY_L) == 1

    def test_fixes_e0_on_default_l(self, subs):
        l_lat = subs.l.induced_gram()
        for i in (1, 9, 18):
            phi = build_phi(i, l_lat)
            e0_local = tuple(1 if j == 0 else 0 for j in range(20))
            assert phi.apply(e0_local) == e0_local

    def test_index_range(self):
        with pytest.raises(ValueError):
            build_phi(0, TOY_L)
        with pytest.raises(ValueError):
            build_phi(2, TOY_L)

    def test_shape_guard(self):
        with pytest.raises(ShapeViolationError):
            build_phi(1, diagonal_lattice([2, -2, -2]))


class TestExtension:
    def test_identity_extends_to_identity(self, subs):
        l_lat = subs.l.induced_gram()
        big = extend_to_lambda(identity_isometry(l_lat), subs.l, subs.tbar)
        assert big.is_identity()

    def test_nontrivial_disc_action_fails(self, subs):
        l_lat = subs.l.induced_gram()
        neg = verify_isometry(linalg.mat_neg(linalg.identity(20)), l_lat)
        assert extension_order(neg, l_lat) > 1
        with pytest.raises(NonIntegralExtensionError):
            extend_to_lambda(neg, subs.l, subs.tbar)

    def test_extended_restricts_correctly(self, subs):
        l_lat = subs.l.induced_gram()
        phi = build_phi(1, l_lat)
        k = extension_order(phi, l_lat)
        big = extend_to_lambda(phi.power(k), subs.l, subs.tbar)
        # restriction to the rows of L reproduces phi^k
        from salemlat.isometry import restrict_to_embedding

        assert restrict_to_embedding(big, subs.l).matrix == phi.power(k).matrix
        for row in subs.tbar.basis:
            assert big.apply(row) == tuple(row)

    def test_tbar_not_orthogonal_to_l_is_refused(self, subs):
        # f0 lies in L and pairs with e0, so moving a Tbar row by f0 keeps
        # L + Tbar of full rank but breaks the orthogonality the projection needs
        l_lat = subs.l.induced_gram()
        bent = (subs.tbar.basis[0],
                tuple(x + (j == 1) for j, x in enumerate(subs.tbar.basis[1])))
        bad = SublatticeEmbedding.from_rows(subs.ambient, bent)
        with pytest.raises(ValueError, match="not orthogonal"):
            extend_to_lambda(identity_isometry(l_lat), subs.l, bad)
        with pytest.raises(ValueError, match="full rank"):
            extend_to_lambda(identity_isometry(l_lat), subs.l,
                             SublatticeEmbedding.from_rows(subs.ambient, bent[:1]))


class TestInverseOfL:
    @pytest.mark.parametrize("primes", (DEFAULT_PRIMES, *OTHER_VALID_SELECTIONS))
    def test_block_inverse_of_l_matches_bareiss(self, primes):
        # adj G_L = (-det Q) U + (-adj Q) and det G_L = -det Q, so build_phi
        # reads adj Q and det Q off the one inverse that L keeps
        l_lat = build_sublattices(primes).l.induced_gram()
        q = tuple(row[2:] for row in l_lat.gram[2:])
        q_adj, q_det = linalg.integral_inverse(q)
        assert q_det == sympy_det(q)
        adj, det = l_lat._inverse
        assert det == -q_det
        assert adj[:2] == (((1, -q_det),), ((0, -q_det),))
        assert adj[2:] == linalg._nonzero_entries(
            tuple((0, 0, *(-x for x in row)) for row in q_adj))
        for i in (1, 7, 18):
            f0_image = linalg.transpose(build_phi(i, l_lat).matrix)[1]
            assert f0_image[2:] == tuple(-x for x in q_adj[i - 1])

    def test_extension_cap_matches_the_discriminant_group(self, suite_seed):
        # the order search stops at |L*/L| times the exponent of L*/L, read
        # off the kept inverse; the zero map is trivial on L*/L only for a
        # unimodular lattice, so elsewhere the search reports its cap
        rng = random.Random(suite_seed + 23)
        seen = 0
        while seen < 40:
            n = rng.randint(1, 4)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            if not 1 < abs(sympy_det(g)) <= 40:
                continue
            seen += 1
            lat = GramLattice.from_rows(g)
            zero = LatticeIsometry(lat, linalg.freeze([[0] * n] * n))
            factors = sympy_invariant_factors(g)
            disc = discriminant_group(lat)
            cap = disc.order * max(disc.invariant_factors, default=1)
            assert cap == prod(factors) * max(factors)
            with pytest.raises(BoundExceededError, match=f"no power up to {cap} "):
                extension_order(zero, lat)


def fraction_extension(phi_power, l_emb, tbar_emb):
    """The block map glued over Q entry by entry: the reference formula."""
    rows = linalg.row_stack(l_emb.basis, tbar_emb.basis)
    s_inv = linalg.fraction_inverse(rows)
    n = len(rows)
    r_l = len(l_emb.basis)
    m_t = linalg.transpose(phi_power.matrix)
    cols = []
    for i in range(n):
        c_l = s_inv[i][:r_l]
        new_coords = [sum(c_l[a] * m_t[a][b] for a in range(r_l))
                      for b in range(r_l)] + list(s_inv[i][r_l:])
        cols.append([sum(new_coords[a] * rows[a][j] for a in range(n))
                     for j in range(n)])
    return linalg.transpose(cols)


class TestExtensionAgainstFractions:
    @pytest.mark.parametrize("primes", (DEFAULT_PRIMES, *OTHER_VALID_SELECTIONS))
    def test_integer_extension_matches_fraction_formula(self, primes):
        subs = build_sublattices(primes)
        l_lat = subs.l.induced_gram()
        for i in (1, 2, 3, 18):
            phi = build_phi(i, l_lat)
            power = phi.power(extension_order(phi, l_lat))
            big = extend_to_lambda(power, subs.l, subs.tbar)
            assert big.matrix == fraction_extension(power, subs.l, subs.tbar)

    def test_fraction_formula_is_not_integral_where_extension_fails(self, subs):
        l_lat = subs.l.induced_gram()
        neg = verify_isometry(linalg.mat_neg(linalg.identity(20)), l_lat)
        oracle = fraction_extension(neg, subs.l, subs.tbar)
        assert any(x.denominator != 1 for row in oracle for x in row)
        with pytest.raises(NonIntegralExtensionError):
            extend_to_lambda(neg, subs.l, subs.tbar)


class TestCommute:
    # v_11, v_12, v_13 sit at indices 6, 7, 8; in E8(-1) v_11 pairs to 0
    # with v_12 and to 1 with v_13, so only the first two reflections commute
    @pytest.mark.parametrize("other, commutes", ((7, True), (8, False)))
    def test_reflections(self, other, commutes):
        lat = k3_lattice()
        first = reflection_in_vector(lat, _unit(6))
        second = reflection_in_vector(lat, _unit(other))
        dense = (dense_mat_mul(first.matrix, second.matrix)
                 == dense_mat_mul(second.matrix, first.matrix))
        assert dense is commutes
        assert _commute(first, second) is commutes


class TestSparseCommute:
    def test_all_pairs_against_dense_products(self, extended):
        # the 153 pairs of extended generators commute, and _commute reads
        # that off the sparse products of differences as the dense ab = ba
        pairs = [(a, b) for idx, a in enumerate(extended) for b in extended[idx + 1:]]
        assert len(pairs) == 153
        for a, b in pairs:
            dense = linalg.mat_mul(a.matrix, b.matrix) == linalg.mat_mul(b.matrix, a.matrix)
            assert dense and _commute(a, b)

    def test_non_commuting_pair(self, extended):
        # the reflection in v_11 moves e1, which the generators move e0 by
        reflection = reflection_in_vector(k3_lattice(), _unit(6))
        for g in (extended[0], extended[9]):
            assert (linalg.mat_mul(g.matrix, reflection.matrix)
                    != linalg.mat_mul(reflection.matrix, g.matrix))
            assert not _commute(g, reflection) and not _commute(reflection, g)


class TestProductKernel:
    def test_extended_generators_against_dense_and_sympy(self, full_report, subs):
        # the products of the extension stage: 22 x 22 isometries with
        # entries up to 378 bits and about 90% zeros
        l_lat = subs.l.induced_gram()
        phis = [build_phi(i, l_lat) for i in range(1, 19)]
        big = [extend_to_lambda(phi.power(k), subs.l, subs.tbar).matrix
               for phi, k in zip(phis, full_report.extension_orders)]
        assert max(abs(x).bit_length() for m in big for row in m for x in row) >= 300
        gram = subs.ambient.gram
        for idx, m in enumerate(big):
            mt_g = linalg.mat_mul(linalg.transpose(m), gram)
            assert mt_g == dense_mat_mul(linalg.transpose(m), gram)
            assert linalg.mat_mul(mt_g, m) == dense_mat_mul(mt_g, m)
            other = big[(idx + 1) % len(big)]
            assert linalg.mat_mul(m, other) == sympy_mat_mul(m, other)
            phi = phis[idx].matrix
            assert linalg.mat_mul(phi, phi) == dense_mat_mul(phi, phi)
            v = m[idx]
            assert linalg.mat_vec(m, v) == tuple(
                row[0] for row in dense_mat_mul(m, tuple((x,) for x in v)))


@pytest.fixture(scope="module")
def extended(full_report, subs):
    """The eighteen extended generators of DEFAULT_PRIMES."""
    l_lat = subs.l.induced_gram()
    return [extend_to_lambda(build_phi(i, l_lat).power(k), subs.l, subs.tbar)
            for i, k in zip(range(1, 19), full_report.extension_orders)]


class TestSparseView:
    def test_moved_and_displacement_against_dense(self, extended, subs):
        gram = subs.ambient.gram
        for g in extended:
            minus_i = [[x - (i == j) for j, x in enumerate(row)]
                       for i, row in enumerate(g.matrix)]
            assert g.moved == linalg._nonzero_entries(minus_i)
            assert sum(len(row) for row in g.moved) <= 25
            vectors = (*subs.w_rows, *subs.tbar.basis, subs.e0, gram[3])
            assert g.displacements(vectors) == tuple(
                tuple(a - b for a, b in zip(linalg.mat_vec(g.matrix, v), v))
                for v in vectors)
            assert g.displacements(()) == ()

    def test_verify_witness_on_perturbed_generators(self, extended, subs, suite_seed):
        # M^T G M - G read as D^T + M^T D with D = G (M - I) keeps the
        # witness: the first (i, j), row by row, of the dense M^T G M
        import random

        rng = random.Random(suite_seed + 21)
        gram = subs.ambient.gram
        assert max(abs(x).bit_length() for g in extended
                   for row in g.matrix for x in row) >= 300
        broken = 0
        for g in extended:
            assert verify_isometry(g.matrix, subs.ambient).matrix == g.matrix
            m = [list(row) for row in g.matrix]
            for _ in range(rng.randint(1, 2)):
                i, j = rng.randrange(22), rng.randrange(22)
                m[i][j] += rng.choice((-1, 1, m[i][j] or 1))
            mt = linalg.transpose(m)
            dense = dense_mat_mul(dense_mat_mul(mt, gram), m)
            expected = next(((i, j) for i in range(22) for j in range(22)
                             if dense[i][j] != gram[i][j]), None)
            if expected is None:
                continue
            with pytest.raises(GramViolationError) as err:
                verify_isometry(m, subs.ambient)
            assert err.value.witness == expected
            broken += 1
        assert broken >= 12

    def test_run_k3_never_applies_a_dense_matrix(self, monkeypatch):
        # every reader of the extension stage works on the sparse M - I
        def refuse(self, v):
            raise AssertionError("dense LatticeIsometry.apply reached")

        monkeypatch.setattr(LatticeIsometry, "apply", refuse)
        report = run_k3(DEFAULT_PRIMES)
        assert report.all_passed and report.group_rank == 18

    def test_alpha_vectors_rank_against_sympy(self, full_report):
        vectors = full_report.alpha_vectors
        assert min(abs(sum(v)).bit_length() for v in vectors) >= 150
        assert linalg.rational_rank(vectors) == sympy_rank(vectors) == 18
        assert linalg.rational_rank(vectors[:5] + (vectors[0],)) == 5


class TestPeriod:
    def test_a2_identities(self):
        tbar = GramLattice.from_rows([[2, 1], [1, 2]])
        t = GramLattice.from_rows([[0, 0, 0], [0, 2, 1], [0, 1, 2]])
        sigma = period_point(tbar, t)
        assert sigma.a_param == 3
        # (sigma, conj sigma) = A / a = 3 is asserted inside period_point;
        # re-derive the pairing here as an explicit check
        from salemlat.k3 import _period_pairing

        pairing = _period_pairing(t.gram, sigma.coordinates,
                                  tuple(x.conjugate() for x in sigma.coordinates))
        assert pairing.parts == (Fraction(3), Fraction(0), Fraction(0), Fraction(0))

    def test_diagonal_tbar(self):
        tbar = GramLattice.from_rows([[2, 0], [0, 2]])
        t = GramLattice.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 2]])
        sigma = period_point(tbar, t)
        assert sigma.a_param == 4

    def test_wrong_shape(self):
        tbar = GramLattice.from_rows([[2, 1], [1, 2]])
        bad_t = GramLattice.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 2]])
        with pytest.raises(ShapeViolationError):
            period_point(tbar, bad_t)
        with pytest.raises(ShapeViolationError):
            period_point(GramLattice.from_rows([[-2, 0], [0, -2]]), bad_t)

    def test_conjugation_involutive_algebra_map(self):
        x = QuarticAlgebraElement.of(3, 1, 2, 3, 4)
        y = QuarticAlgebraElement.of(3, -2, 0, 1, 5)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_minimal_sublattice_is_t(self):
        tbar = GramLattice.from_rows([[2, 1], [1, 2]])
        t = GramLattice.from_rows([[0, 0, 0], [0, 2, 1], [0, 1, 2]])
        sigma = period_point(tbar, t)
        m = minimal_primitive_sublattice(sigma, t)
        assert m.spans_same(SublatticeEmbedding.from_rows(t, linalg.identity(3)))

    def test_minimal_sublattice_rational_line(self):
        z3 = diagonal_lattice([2, 2, 2])
        sigma = PeriodPoint(a_param=4, coordinates=(
            QuarticAlgebraElement.of(4, x0=2),
            QuarticAlgebraElement.of(4, x0=4),
            QuarticAlgebraElement.of(4, x0=6)))
        m = minimal_primitive_sublattice(sigma, z3)
        assert m.basis == ((1, 2, 3),)

    def test_minimal_sublattice_two_components(self):
        z3 = diagonal_lattice([2, 2, 2])
        sigma = PeriodPoint(a_param=4, coordinates=(
            QuarticAlgebraElement.of(4, x1=1),
            QuarticAlgebraElement.of(4),
            QuarticAlgebraElement.of(4, x0=1)))
        m = minimal_primitive_sublattice(sigma, z3)
        assert m.basis == ((1, 0, 0), (0, 0, 1))

    def test_component_vectors_in_span(self, subs):
        sigma = period_point(subs.tbar.induced_gram(), subs.t.induced_gram())
        m = minimal_primitive_sublattice(sigma, subs.t.induced_gram())
        from salemlat.lattice import is_primitive

        assert is_primitive(m)


class TestTorelliAndAlpha:
    def test_torelli_identity(self, subs):
        sigma = period_point(subs.tbar.induced_gram(), subs.t.induced_gram())
        ident = identity_isometry(subs.ambient)
        cert = torelli_certificate(ident, sigma, subs.t, subs.e0)
        assert cert.passed

    def test_torelli_minus_identity_fails_e0(self, subs):
        sigma = period_point(subs.tbar.induced_gram(), subs.t.induced_gram())
        neg = verify_isometry(linalg.mat_neg(linalg.identity(22)), subs.ambient)
        cert = torelli_certificate(neg, sigma, subs.t, subs.e0)
        assert not cert.fixes_e0
        assert not cert.fixes_period
        assert not cert.passed

    def test_alpha_identity_zero(self, subs):
        assert alpha_map(identity_isometry(subs.ambient), subs) == (0,) * 18

    def test_alpha_shape_violation(self, subs):
        neg = verify_isometry(linalg.mat_neg(linalg.identity(22)), subs.ambient)
        with pytest.raises(ShapeViolationError):
            alpha_map(neg, subs)


class TestFullPipeline:
    def test_all_checks_pass(self, full_report):
        assert full_report.all_passed, [
            (c.name, c.detail) for c in full_report.checks if not c.passed]
        assert full_report.group_rank == 18

    def test_extension_orders_within_bound(self, full_report):
        assert full_report.extension_orders is not None
        for k in full_report.extension_orders:
            assert 1 <= k <= full_report.disc_order

    def test_disc_order_equals_sum_index(self, full_report):
        assert full_report.sum_index_l_tbar == full_report.disc_order

    def test_disc_order_is_the_discriminant_group_order(self, suite_seed):
        # |det G_L| against the Smith diagonal of L*/L, on scan-style
        # selections; a selection failing its structural checks reports none
        passed = 0
        for primes in (DEFAULT_PRIMES, *scan_selections(suite_seed + 41, 16)):
            report = run_k3(primes, skip_extension=True)
            if not report.all_passed:
                assert report.disc_order is None
                continue
            passed += 1
            l_lat = build_sublattices(primes).l.induced_gram()
            assert report.disc_order == discriminant_group(l_lat).order
        assert passed >= 5

    def test_n_plus_t_corank_one(self, full_report):
        assert full_report.n_plus_t_corank == 1

    def test_alpha_images_scaled_unit_vectors(self, full_report, subs):
        l_lat = subs.l.induced_gram()
        q = [row[2:] for row in l_lat.gram[2:]]
        m = linalg.det_bareiss(linalg.freeze(q))
        for i, vec in enumerate(full_report.alpha_vectors):
            ks = full_report.extension_orders[i]
            expected = tuple(ks * m if j == i else 0 for j in range(18))
            assert vec == expected

    def test_alpha_homomorphism_on_products(self, full_report, subs):
        # alpha(g h) = alpha(g) + alpha(h) on generator words up to length 3
        import random

        rng = random.Random(20240917)
        l_lat = subs.l.induced_gram()
        phis = [build_phi(i, l_lat) for i in (1, 5, 12)]
        bigs = [extend_to_lambda(p.power(extension_order(p, l_lat)),
                                 subs.l, subs.tbar) for p in phis]
        for _ in range(10):
            word = [bigs[rng.randrange(3)] for _ in range(rng.randint(2, 3))]
            prod = word[0]
            total = list(alpha_map(word[0], subs))
            for g in word[1:]:
                prod = prod.compose(g)
                total = [a + b for a, b in zip(total, alpha_map(g, subs))]
            assert alpha_map(prod, subs) == tuple(total)

    def test_group_rank_of_dependent_subset(self, full_report, subs):
        l_lat = subs.l.induced_gram()
        phi = build_phi(1, l_lat)
        big = extend_to_lambda(phi.power(extension_order(phi, l_lat)),
                               subs.l, subs.tbar)
        assert group_rank_via_alpha([big, big.compose(big)], subs) == 1
        assert group_rank_via_alpha([], subs) == 0

    def test_parabolic_restriction_attains_bound(self, full_report, subs):
        # restrict the eighteen ambient isometries to N and read the
        # unipotent coordinates there
        from salemlat.isometry import restrict_to_embedding
        from salemlat.parabolic import parabolic_group_rank

        l_lat = subs.l.induced_gram()
        n_lat = subs.n.induced_gram()
        gens = []
        for i in range(1, 19):
            phi = build_phi(i, l_lat)
            big = extend_to_lambda(phi.power(extension_order(phi, l_lat)),
                                   subs.l, subs.tbar)
            gens.append(restrict_to_embedding(big, subs.n))
        rank = parabolic_group_rank(gens, n_lat)
        assert rank == 18 == n_lat.rank - 1

    def test_skip_extension_stops_early(self):
        report = run_k3(DEFAULT_PRIMES, skip_extension=True)
        assert report.group_rank is None
        assert report.extension_orders is None
        names = [c.name for c in report.checks]
        assert "alpha_rank_18" not in names
        assert all(c.passed for c in report.checks)

    def test_non_isometry_fails_phi_check_with_witness(self, monkeypatch):
        def doubling(i, l_lat):
            return verify_isometry(
                linalg.mat_scale(linalg.identity(l_lat.rank), 2), l_lat)

        monkeypatch.setattr(k3_module, "build_phi", doubling)
        report = run_k3(DEFAULT_PRIMES)
        check = report.checks[-1]
        assert check.name == "phi_isometries_on_l"
        assert not check.passed
        assert check.witness == (0, 1)
        assert check.detail.startswith("phi_1: ")
        assert report.extension_orders is None
        assert report.group_rank is None

    def test_shared_inverses_are_computed_once(self, monkeypatch):
        # Inverses: the unimodular one in _radical_split (19 rows) and, with
        # the extension stage, one per summand of G_L = U + 9 + 9, which L
        # keeps for every generator; per-generator work would show up as 18
        # or more calls. No discriminant group: the report reads |L*/L| off
        # det G_L. Congruence runs, one per summand: N = 1 + 9 + 9,
        # Nbar = 9 + 9, L = 2 + 9 + 9, Tbar = 1 + 1 (diagonal here) and the
        # definite quotient of N, 9 + 9, in vectors_of_norm (represents reuses
        # the run of N); period_point reuses the run of Tbar.
        runs = []
        inverted = []

        def counted_inverse(a):
            inverted.append(len(a))
            return integral_inverse(a)

        def counted_core(rows, n):
            runs.append((n, len(rows[0]) - n))
            return core(rows, n)

        integral_inverse = linalg.integral_inverse
        core = lattice_module._congruence_bareiss
        # the ambient lattice is made once per process and keeps its
        # congruence runs (det G of the extensions' verify_isometry), so
        # whether an earlier test made it does not change the counts
        k3_lattice().determinant()
        monkeypatch.setattr(linalg, "integral_inverse", counted_inverse)
        monkeypatch.setattr(lattice_module, "_congruence_bareiss", counted_core)
        discs = []

        def counted_disc(lat):
            discs.append(lat.rank)
            return discriminant_group(lat)

        monkeypatch.setattr(lattice_module, "discriminant_group", counted_disc)
        # k3 binds no such name; a re-import would be counted too
        monkeypatch.setattr(k3_module, "discriminant_group", counted_disc, raising=False)
        plain = [1, 9, 9] + [9, 9] + [2, 9, 9] + [1, 1] + [9, 9]
        for skip_extension, inverses in ((True, [19]), (False, [19, 2, 9, 9])):
            runs.clear()
            inverted.clear()
            assert run_k3(DEFAULT_PRIMES, skip_extension).all_passed
            assert inverted == inverses
            assert discs == []
            assert runs == [(n, 0) for n in plain]

    def test_each_run_inverts_l_once_and_never_l_plus_tbar(self, monkeypatch):
        # the summands [2, 9, 9] of G_L are inverted once per run, by the
        # lattice object of that run, and neither G_L whole (20 rows) nor
        # [L; Tbar] (22 rows) ever: the extensions go through the projection
        # that the embedding of L keeps. The other inverse is the basis
        # completion of N's radical (19 rows). Two runs in a row each pay
        # for their own inverses, so nothing outlives a run. No run builds a
        # discriminant group.
        shapes, discs = [], []
        integral_inverse = linalg.integral_inverse

        def counted_inverse(a):
            shapes.append(len(a))
            return integral_inverse(a)

        def counted_disc(lat):
            discs.append(lat.rank)
            return discriminant_group(lat)

        monkeypatch.setattr(linalg, "integral_inverse", counted_inverse)
        monkeypatch.setattr(lattice_module, "discriminant_group", counted_disc)
        monkeypatch.setattr(k3_module, "discriminant_group", counted_disc, raising=False)
        for _ in range(2):
            shapes.clear()
            discs.clear()
            report = run_k3(DEFAULT_PRIMES)
            assert report.all_passed and report.group_rank == 18
            assert shapes == [19, 2, 9, 9]
            assert discs == []

    def test_plain_congruence_runs_see_at_most_nine_rows(self, monkeypatch):
        # every Gram matrix of a full run splits into orthogonal summands of
        # at most 9 rows, the ambient U^3 + E8(-1)^2 included, and each plain
        # congruence run sees one summand
        rows = []
        core = lattice_module._congruence_bareiss

        def counted(block, n):
            if len(block[0]) == n:
                rows.append(n)
            return core(block, n)

        monkeypatch.setattr(lattice_module, "_congruence_bareiss", counted)
        k3_lattice.cache_clear()
        report = run_k3(DEFAULT_PRIMES)
        assert report.all_passed and report.group_rank == 18
        assert max(rows) == 9
        assert Counter(rows) == Counter({9: 8, 8: 2, 2: 4, 1: 3})

    def test_extension_stage_has_no_run_context(self):
        # run_k3 calls the public functions as every caller does; what they
        # share lives on the lattice and embedding objects
        for f in (build_phi, extension_order, extend_to_lambda):
            assert "context" not in inspect.signature(f).parameters
        assert not {"_RunContext", "_block_inverse", "_projection"} & set(vars(k3_module))

    def test_structural_stage_runs_small_smith_forms(self, monkeypatch):
        # Smith runs: the kernels behind T (3 x 22) and Tbar (2 x 3) and the
        # basis completion of N's radical (1 x 19); |L*/L| is det G_L, so no
        # 20 x 20 run. Primitivity and the index of L + Tbar read HNFs, and
        # every basis the stage builds has private columns, so the only
        # rational rank is that of N + T
        shapes, ranks = [], []
        smith, rational_rank = linalg._smith, linalg.rational_rank

        def counted_smith(d, m, n):
            shapes.append((m, n))
            return smith(d, m, n)

        def counted_rank(a):
            ranks.append(len(a))
            return rational_rank(a)

        monkeypatch.setattr(linalg, "_smith", counted_smith)
        monkeypatch.setattr(linalg, "rational_rank", counted_rank)
        assert run_k3(DEFAULT_PRIMES, skip_extension=True).all_passed
        assert len(shapes) <= 3
        assert set(shapes) <= {(3, 22), (2, 3), (1, 19)}
        assert len(ranks) <= 1

    def test_isometries_are_verified_without_their_determinants(self, monkeypatch):
        # every phi and every extension satisfies M^T G M = G on a
        # nondegenerate G, which forces det M = +-1; the determinants of the
        # Gram matrices are the last pivots of their congruence runs, so a
        # full run makes no determinant elimination at all
        args = []
        det_bareiss = linalg.det_bareiss

        def counted(a):
            args.append(a)
            return det_bareiss(a)

        monkeypatch.setattr(linalg, "det_bareiss", counted)
        # the ambient lattice is made once per process and keeps its det
        k3_lattice.cache_clear()
        report = run_k3(DEFAULT_PRIMES)
        assert report.all_passed
        assert args == []

    def test_induced_grams_are_computed_once(self, monkeypatch):
        # one Gram product per basis: N, Nbar, L, Tbar and the quotient of
        # N, and with the extension stage T; every later induced_gram() of
        # an embedding returns the lattice it keeps
        calls = Counter()
        kept = lattice_module.SublatticeEmbedding.__dict__["_gram"]

        def counted(emb):
            calls[emb.basis] += 1
            return kept.func(emb)

        prop = functools.cached_property(counted)
        prop.__set_name__(lattice_module.SublatticeEmbedding, "_gram")
        monkeypatch.setattr(lattice_module.SublatticeEmbedding, "_gram", prop)
        for skip_extension, grams in ((True, 5), (False, 6)):
            calls.clear()
            assert run_k3(DEFAULT_PRIMES, skip_extension).all_passed
            assert sum(calls.values()) == grams
            assert set(calls.values()) == {1}

    def test_failing_selection_runs_the_symmetric_core_per_summand(self, monkeypatch):
        # plain runs for the signatures of N, Nbar, L and Tbar, one per
        # summand; one augmented run each on the whole of N, Nbar and Tbar
        # for their witnesses, whose pivot order the certificate records
        calls = []
        core = lattice_module._congruence_bareiss

        def counted(rows, n):
            calls.append((n, len(rows[0]) - n))
            return core(rows, n)

        monkeypatch.setattr(lattice_module, "_congruence_bareiss", counted)
        report = run_k3(SMALL_PRIME_SELECTION, skip_extension=True)
        failed = {c.name for c in report.checks if not c.passed}
        assert {"nbar_elliptic_rank_18", "tbar_positive_definite_rank_2"} <= failed
        assert calls == [(1, 0), (9, 0), (9, 0), (19, 19),    # N
                         (9, 0), (9, 0), (18, 18),            # Nbar
                         (2, 0), (9, 0), (9, 0),              # L
                         (1, 0), (1, 0), (2, 2)]              # Tbar

    def test_failed_torelli_check_skips_the_alpha_vectors(self, monkeypatch):
        # -I on Lambda is an isometry that fixes neither e0 nor T, so
        # alpha_map would raise ShapeViolationError on it
        ambient = k3_lattice()
        minus_identity = verify_isometry(
            [[-(i == j) for j in range(ambient.rank)] for i in range(ambient.rank)], ambient)
        monkeypatch.setattr(k3_module, "extend_to_lambda", lambda *args: minus_identity)
        report = run_k3(DEFAULT_PRIMES)
        checks = {c.name: c for c in report.checks}
        assert not checks["phis_fix_e0"].passed
        assert not checks["phis_fix_t_pointwise"].passed
        assert not checks["alpha_rank_18"].passed
        assert checks["alpha_rank_18"].detail.startswith("skipped: ")
        assert report.alpha_vectors is None and report.group_rank is None

    def test_failed_selection_reports_and_omits_rank(self):
        report = run_k3(SMALL_PRIME_SELECTION)
        assert not report.all_passed
        assert report.group_rank is None


# sha256 of the full run_k3 report of each selection, serialized by
# report_to_json and dumps_certificate: four valid selections beyond
# DEFAULT_PRIMES, then two whose N and Nbar fail definiteness with witnesses
GOLDEN_REPORTS = (
    (PrimeSelection(p=5, q=7, p_list=(41, 43, 47, 53, 59, 61, 67, 71),
                    q_list=(73, 79, 83, 89, 97, 101, 103, 107)),
     "3d64ec9870e8ae6dcc5f69abc08d4c93e2f409d561bebd8089d9ac5dfa56eaf4"),
    (PrimeSelection(p=3, q=2, p_list=(101, 103, 107, 109, 113, 127, 131, 137),
                    q_list=(139, 149, 151, 157, 163, 167, 173, 179)),
     "c09f788aeaff18392b026dad43d4d48e8f8e2248c7af060169ddf93d5301778d"),
    (PrimeSelection(p=2, q=3, p_list=(29, 191, 79, 71, 113, 181, 61, 197),
                    q_list=(107, 251, 199, 239, 151, 211, 109, 83)),
     "554a9303ab401b798e2b46206b5e39bf273b953a3932d3702daa60306ec3adcd"),
    (PrimeSelection(p=2, q=3, p_list=(179, 47, 167, 59, 137, 71, 127, 109),
                    q_list=(107, 97, 181, 61, 103, 89, 229, 211)),
     "971fbd1e51e04b729c3f85361e530f4950bc55851d28619f18a4651d8ec086a6"),
    (PrimeSelection(p=2, q=3, p_list=(7, 11, 13, 17, 19, 23, 29, 31),
                    q_list=(37, 41, 43, 47, 53, 59, 61, 67)),
     "5b7160ab8dcd07ceefb90679386e4058ccb313f98dc0aa62f8b7d288ec652633"),
    (PrimeSelection(p=7, q=5, p_list=(271, 191, 331, 79, 19, 53, 17, 241),
                    q_list=(397, 29, 137, 103, 229, 197, 199, 13)),
     "c82798f2dac18a24f8f6cf33f2cb54ffe096af0078c6564aab4bf3bd12114648"),
)


class TestGoldenReports:
    @pytest.mark.parametrize("primes, digest", GOLDEN_REPORTS)
    def test_report_digest(self, primes, digest):
        report = run_k3(primes)
        text = dumps_certificate(report_to_json(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if not report.all_passed:
            failed = {c.name: c.witness for c in report.checks if not c.passed}
            assert failed["n_parabolic"] is not None
            assert failed["nbar_elliptic_rank_18"] is not None
