import random

import pytest

from salemlat import linalg

from oracles import (
    dense_mat_mul,
    sympy_adjugate,
    sympy_charpoly,
    sympy_det,
    sympy_in_row_lattice,
    sympy_inverse,
    sympy_invariant_factors,
    sympy_mat_mul,
    sympy_rank,
    sympy_row_lattice_basis,
    sympy_solve,
)


def random_matrix(rng, m, n, lo=-30, hi=30):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def sparse_matrix(rng, m, n, density, bits):
    """Entries of up to the given bit length, each nonzero with that chance."""
    return tuple(
        tuple(rng.choice((-1, 1)) * rng.getrandbits(bits) if rng.random() < density else 0
              for _ in range(n))
        for _ in range(m))


class TestProductKernel:
    def check(self, a, b):
        product = linalg.mat_mul(a, b)
        assert product == dense_mat_mul(a, b) == sympy_mat_mul(a, b)
        # a times the first column of b is the first column of the product
        assert linalg.mat_vec(a, [row[0] for row in b]) == tuple(row[0] for row in product)

    def test_against_dense_and_sympy(self, suite_seed):
        # dense, sparse and all-zero inputs of every shape, small entries
        # and 378-bit entries as in the extended K3 isometries
        rng = random.Random(suite_seed + 9)
        for density in (1.0, 0.1, 0.0):
            for bits in (4, 378):
                for _ in range(12):
                    m, k, n = (rng.randint(1, 7) for _ in range(3))
                    self.check(sparse_matrix(rng, m, k, density, bits),
                               sparse_matrix(rng, k, n, density, bits))

    def test_zero_rows_and_empty_inputs(self, suite_seed):
        rng = random.Random(suite_seed + 10)
        for _ in range(20):
            m, k, n = (rng.randint(1, 6) for _ in range(3))
            a = [list(row) for row in random_matrix(rng, m, k)]
            b = [list(row) for row in random_matrix(rng, k, n)]
            a[rng.randrange(m)] = [0] * k
            b[rng.randrange(k)] = [0] * n
            self.check(linalg.freeze(a), linalg.freeze(b))
        assert linalg.mat_mul((), ((1, 2),)) == ()
        assert linalg.mat_mul(((), ()), ()) == ((), ())
        assert linalg.mat_vec((), ()) == ()
        assert linalg.mat_vec(((), ()), ()) == (0, 0)
        self.check(((0, 0), (0, 0)), ((0,), (0,)))

    def test_sign_and_cancellation(self):
        a = ((2**377, -(2**377)), (1, 1))
        b = ((3, 0), (3, 5))
        assert linalg.mat_mul(a, b) == ((0, -5 * 2**377), (6, 5))
        assert linalg.mat_vec(a, (1, 1)) == (0, 2)


class TestSmithNormalForm:
    def test_identity(self):
        ident = linalg.identity(3)
        _, d, _ = linalg.smith_normal_form(ident)
        assert d == ident

    def test_a2_gram(self):
        _, d, _ = linalg.smith_normal_form(((2, 1), (1, 2)))
        assert (d[0][0], d[1][1]) == (1, 3)

    def test_already_diagonal(self):
        _, d, _ = linalg.smith_normal_form(((2, 0), (0, 2)))
        assert (d[0][0], d[1][1]) == (2, 2)

    def test_postconditions_on_randoms(self, suite_seed):
        rng = random.Random(suite_seed)
        for _ in range(150):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = random_matrix(rng, m, n)
            u, d, v = linalg.smith_normal_form(a)
            assert linalg.mat_mul(linalg.mat_mul(u, a), v) == d
            assert linalg.det_bareiss(u) in (1, -1)
            assert linalg.det_bareiss(v) in (1, -1)
            diag = [d[i][i] for i in range(min(m, n))]
            nz = [x for x in diag if x]
            assert all(x > 0 for x in nz)
            for x, y in zip(nz, nz[1:]):
                assert y % x == 0
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0
            assert diag == sympy_invariant_factors(a)


class TestNormalFormsAgainstSympy:
    def inputs(self, suite_seed):
        # rectangular both ways, rank deficient, all zero, and the K3
        # bases and Gram matrices the lattice code reduces
        from salemlat.k3 import DEFAULT_PRIMES, build_sublattices

        rng = random.Random(suite_seed + 11)
        out = [((0, 0, 0), (0, 0, 0)), ((6,),), ((0,), (4,))]
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, m, n, -12, 12)
            if rng.random() < 0.3 and m > 1:
                a = a[:-1] + (tuple(x + y for x, y in zip(a[0], a[1])),)
            out.append(a)
        subs = build_sublattices(DEFAULT_PRIMES)
        for emb in (subs.n, subs.l, subs.tbar):
            out += [emb.basis, emb.induced_gram().gram]
        out.append(linalg.row_stack(subs.l.basis, subs.tbar.basis))
        return out

    def test_smith_normal_form_and_diagonal(self, suite_seed):
        for a in self.inputs(suite_seed):
            u, d, v = linalg.smith_normal_form(a)
            assert linalg.mat_mul(linalg.mat_mul(u, a), v) == d
            diag = linalg.snf_diagonal(a)
            assert diag == [d[i][i] for i in range(min(len(a), len(a[0])))]
            assert diag == sympy_invariant_factors(a)

    def test_hermite_normal_form(self, suite_seed):
        for a in self.inputs(suite_seed):
            h = linalg.hermite_normal_form(a)
            basis = sympy_row_lattice_basis(a)
            assert len(h) == len(basis) == sympy_rank(a)
            assert sympy_in_row_lattice(h, basis)
            assert sympy_in_row_lattice(basis, h)
            # row echelon with positive pivots and reduced entries above them
            cols = [next(j for j, x in enumerate(row) if x) for row in h]
            assert cols == sorted(set(cols))
            for i, c in enumerate(cols):
                assert h[i][c] > 0
                assert all(0 <= h[r][c] < h[i][c] for r in range(i))


class TestHermite:
    def test_span_equality_detection(self, suite_seed):
        rng = random.Random(suite_seed + 1)
        for _ in range(60):
            n = rng.randint(2, 5)
            r = rng.randint(1, n)
            a = random_matrix(rng, r, n, -9, 9)
            if linalg.rational_rank(a) != r:
                continue
            # unimodular recombination spans the same sublattice
            u = linalg.identity(r)
            for _ in range(6):
                i, j = rng.randrange(r), rng.randrange(r)
                if i != j:
                    u = tuple(
                        tuple(u[a_][b_] + (rng.randint(-2, 2) if a_ == i else 0)
                              * u[j][b_] for b_ in range(r)) for a_ in range(r))
            b = linalg.mat_mul(u, a)
            if linalg.det_bareiss(u) in (1, -1):
                assert (linalg.hermite_normal_form(a)
                        == linalg.hermite_normal_form(b))


class TestCharPoly:
    def test_pell(self):
        assert linalg.charpoly_coeffs(((3, 4), (2, 3))) == [1, -6, 1]

    def test_identity_rank2(self):
        assert linalg.charpoly_coeffs(((1, 0), (0, 1))) == [1, -2, 1]

    def test_against_sympy(self, suite_seed):
        rng = random.Random(suite_seed + 2)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_matrix(rng, n, n, -8, 8)
            assert linalg.charpoly_coeffs(a) == sympy_charpoly(a)

    def test_det_consistency(self, suite_seed):
        rng = random.Random(suite_seed + 3)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_matrix(rng, n, n, -8, 8)
            coeffs = linalg.charpoly_coeffs(a)
            det = linalg.det_bareiss(a)
            assert coeffs[0] == (-1) ** n * det


class TestKernelAndInverse:
    def test_kernel_annihilates(self, suite_seed):
        # n - rank(a) rows, each annihilated by a, spanning a saturated
        # lattice: every Smith diagonal entry is 1. Some inputs repeat a
        # combination of rows, or scale them, so that ranks drop and the
        # rational kernel has content to lose
        rng = random.Random(suite_seed + 4)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 6)
            a = [list(row) for row in random_matrix(rng, m, n, -6, 6)]
            if m > 1 and rng.random() < 0.4:
                a[-1] = [2 * x - 3 * y for x, y in zip(a[0], a[1])]
            if rng.random() < 0.3:
                a[0] = [6 * x for x in a[0]]
            a = linalg.freeze(a)
            kernel = linalg.integer_kernel(a)
            assert len(kernel) == n - sympy_rank(a)
            for row in kernel:
                assert all(
                    sum(a[i][j] * row[j] for j in range(n)) == 0
                    for i in range(m))
            if kernel:
                assert set(linalg.snf_diagonal(kernel)) == {1}

    def test_unimodular_inverse(self):
        a = ((1, 2), (0, 1))
        assert linalg.mat_mul(a, linalg.unimodular_inverse(a)) == linalg.identity(2)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            linalg.unimodular_inverse(((2, 0), (0, 1)))

    def test_fraction_solve_inconsistent(self):
        assert linalg.fraction_solve(((1, 0), (1, 0)), (1, 2)) is None

    def test_mat_pow_against_repeated_products(self):
        a = ((2, 1, 0), (1, 1, 1), (0, 1, 3))  # determinant 1
        expected = linalg.identity(3)
        for k in range(10):
            assert linalg.mat_pow(a, k) == expected
            expected = linalg.mat_mul(expected, a)
        inv = linalg.mat_pow(a, -1)
        assert linalg.mat_mul(a, inv) == linalg.identity(3)
        assert linalg.mat_pow(a, -3) == linalg.mat_mul(inv, linalg.mat_mul(inv, inv))

    @pytest.mark.parametrize("k, products", ((1, 0), (2, 1), (8, 3), (9, 4)))
    def test_mat_pow_product_count(self, monkeypatch, k, products):
        calls = []
        mat_mul = linalg.mat_mul

        def counted(a, b):
            calls.append(k)
            return mat_mul(a, b)

        monkeypatch.setattr(linalg, "mat_mul", counted)
        linalg.mat_pow(((1, 1), (0, 1)), k)
        assert len(calls) == products

    def test_adjugate(self):
        a = ((2, 1), (1, 2))
        adj = linalg.adjugate(a)
        assert adj == ((2, -1), (-1, 2))


class TestEliminationAgainstSympy:
    def test_rank_inverse_solve(self, suite_seed):
        rng = random.Random(suite_seed + 5)
        singular = inconsistent = 0
        for trial in range(90):
            m = rng.randint(1, 5)
            n = m if trial % 3 == 0 else rng.randint(1, 5)
            if trial % 2:
                # a product through k < min(m, n) columns is rank-deficient
                k = rng.randint(1, max(1, min(m, n) - 1))
                a = linalg.mat_mul(random_matrix(rng, m, k, -4, 4),
                                   random_matrix(rng, k, n, -4, 4))
            else:
                a = random_matrix(rng, m, n, -6, 6)
            assert linalg.rational_rank(a) == sympy_rank(a)
            if m == n:
                self.check_square(a)
                singular += sympy_det(a) == 0
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            for b in (linalg.mat_vec(a, x0), [rng.randint(-9, 9) for _ in range(m)]):
                x = linalg.fraction_solve(a, b)
                assert x == sympy_solve(a, b)
                inconsistent += x is None
        assert singular > 0 and inconsistent > 0

    def test_rank_of_rows_with_content(self, suite_seed):
        # rows scaled by contents above 1, as the alpha vectors det Q e_i are;
        # the rank divides each row by its content before elimination
        rng = random.Random(suite_seed + 8)
        for trial in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = [list(row) for row in random_matrix(rng, m, n, -5, 5)]
            if trial % 2 and m > 1:
                a[-1] = [x - y for x, y in zip(a[0], a[1])]
            a[rng.randrange(m)] = [0] * n
            a = tuple(tuple(rng.choice((2, 6, 2**190 + 1)) * x for x in row) for row in a)
            assert linalg.rational_rank(a) == sympy_rank(a)

    @staticmethod
    def check_square(a):
        det = sympy_det(a)
        assert linalg.det_bareiss(a) == det
        if det == 0:
            for singular_front in (linalg.integral_inverse, linalg.fraction_inverse,
                                   linalg.adjugate):
                with pytest.raises(ValueError):
                    singular_front(a)
            return
        adj = sympy_adjugate(a)
        assert linalg.integral_inverse(a) == (adj, det)
        assert linalg.adjugate(a) == adj
        assert linalg.fraction_inverse(a) == sympy_inverse(a)

    def test_zero_leading_entries_swap_rows(self, suite_seed):
        fixed = [
            ((0, 1), (1, 0)),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
            ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
            ((0, 2, 1), (0, 1, 3), (4, 5, 0)),
            ((0, 3, 1, 2), (0, 0, 2, 1), (1, 1, 0, 0), (2, 0, 1, 5)),
            ((0, 1, 2), (0, 3, 6), (0, 4, 1)),
        ]
        rng = random.Random(suite_seed + 6)
        seeded = []
        for _ in range(30):
            n = rng.randint(2, 6)
            a = [list(row) for row in random_matrix(rng, n, n, -5, 5)]
            # zero the top of the first column, and of the second below row 0
            for i in range(rng.randint(1, n - 1)):
                a[i][0] = 0
            for i in range(1, rng.randint(1, n)):
                a[i][1] = 0
            seeded.append(linalg.freeze(a))
        for a in fixed + seeded:
            self.check_square(a)
            assert linalg.rational_rank(a) == sympy_rank(a)

    def test_unimodular_inverse_of_elementary_products(self, suite_seed):
        rng = random.Random(suite_seed + 7)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = [list(row) for row in linalg.identity(n)]
            for _ in range(rng.randint(0, 12)):
                i, j, c = rng.randrange(n), rng.randrange(n), rng.randint(-3, 3)
                step = rng.randrange(3)
                if step == 0 and i != j:
                    a[i] = [x + c * y for x, y in zip(a[i], a[j])]
                elif step == 1:
                    a[i], a[j] = a[j], a[i]
                else:
                    a[i] = [-x for x in a[i]]
            a = linalg.freeze(a)
            inv = linalg.unimodular_inverse(a)
            assert linalg.mat_mul(a, inv) == linalg.identity(n)
            assert inv == tuple(tuple(int(x) for x in row) for row in sympy_inverse(a))
            assert linalg.det_bareiss(a) == sympy_det(a) in (1, -1)
