import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemlat import lattice as lattice_module
from salemlat import linalg
from salemlat.isometry import LatticeIsometry, verify_isometry
from salemlat.k3 import DEFAULT_PRIMES, build_sublattices, k3_lattice
from salemlat.lattice import (
    DegenerateLatticeError,
    GramLattice,
    IndefiniteLatticeError,
    LatticeClass,
    RadicalRankError,
    SublatticeEmbedding,
    UnsupportedSignatureError,
    _congruence_bareiss,
    _has_private_columns,
    _signature_and_witnesses,
    classify,
    definiteness_witness,
    diagonal_lattice,
    direct_sum,
    discriminant_group,
    e8_minus_one,
    hyperbolic_plane,
    index_of_sum,
    is_primitive,
    orthogonal_complement,
    quotient_by_radical,
    radical,
    represents,
    saturation,
    signature,
    vectors_of_norm,
)
from salemlat.parabolic import QuotientActionError, parabolic_coordinates

from oracles import (
    dense_mat_mul,
    dense_unipotent_coordinates,
    descartes_signature,
    fraction_definiteness_witness,
    fraction_vectors_of_norm,
    naive_vectors_of_norm,
    signature_with_basis,
    sympy_adjugate,
    sympy_det,
    sympy_inverse,
    sympy_invariant_factors,
    sympy_rank,
    sympy_solve,
)
from test_k3 import SMALL_PRIME_SELECTION

U = hyperbolic_plane()
E8 = e8_minus_one()


def random_unimodular(rng, n):
    u = [list(r) for r in linalg.identity(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return linalg.freeze(u)


class TestSignature:
    def test_hyperbolic_plane(self):
        assert tuple(signature(U)) == (1, 0, 1)

    def test_e8_negative_definite(self):
        assert tuple(signature(E8)) == (0, 0, 8)
        assert E8.determinant() == 1
        assert E8.even

    def test_zero_form(self):
        assert tuple(signature(GramLattice.from_rows([[0]]))) == (0, 1, 0)

    def test_invariance_under_unimodular_change(self, suite_seed):
        rng = random.Random(suite_seed)
        samples = [U, E8, diagonal_lattice([2, -4]), direct_sum(U, U),
                   GramLattice.from_rows([[0, 0], [0, -2]])]
        for lat in samples:
            sig = tuple(signature(lat))
            for _ in range(20):
                p = random_unimodular(rng, lat.rank)
                conj = linalg.mat_mul(linalg.mat_mul(p, lat.gram),
                                      linalg.transpose(p))
                assert tuple(signature(GramLattice(conj))) == sig


def seeded_symmetric(rng, n, kind):
    """A random symmetric n x n matrix, entries in -4..4, of the given kind."""
    g = [[0] * n for _ in range(n)]
    if kind == "zero":
        return g
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = rng.randint(-4, 4)
    if kind == "zero-diagonal":
        for i in range(n):
            g[i][i] = 0
    elif kind == "repeated-row" and n >= 2:
        a, b = rng.sample(range(n), 2)
        for i in range(n):
            g[b][i] = g[i][b] = g[a][i]
        g[b][b] = g[a][a]
    return g


def congruence_inputs(seed):
    rng = random.Random(seed)
    for n in range(9):
        for kind in ("general", "zero", "zero-diagonal", "repeated-row"):
            for _ in range(4 if kind != "zero" else 1):
                yield GramLattice.from_rows(seeded_symmetric(rng, n, kind))


def k3_inputs():
    for primes in (DEFAULT_PRIMES, SMALL_PRIME_SELECTION):
        subs = build_sublattices(primes)
        for emb in (subs.n, subs.nbar, subs.l, subs.tbar):
            yield emb.induced_gram()


class TestCongruenceBareiss:
    """The integer core against the Fraction congruence loop and sympy."""

    def check(self, lat):
        sig, diag, _ = signature_with_basis(lat)
        pairs, _ = _congruence_bareiss([list(row) for row in lat.gram], lat.rank)
        assert [Fraction(p, prev) for p, prev in pairs] == diag
        assert tuple(signature(lat)) == sig
        # one augmented run gives the signature and the witness of each sign
        sig_again, witnesses = _signature_and_witnesses(lat)
        assert tuple(sig_again) == sig
        for wanted in (-1, 0, 1):
            witness = definiteness_witness(lat, wanted)
            assert witness == fraction_definiteness_witness(lat, wanted)
            assert witness == witnesses.get(wanted)
            if witness is not None:
                norm = lat.norm(witness)
                assert (norm > 0) - (norm < 0) == wanted

    def test_seeded_matrices(self, suite_seed):
        for lat in congruence_inputs(suite_seed + 11):
            self.check(lat)

    def test_k3_sublattices(self):
        for lat in k3_inputs():
            self.check(lat)

    def test_zero_diagonal_witnesses(self):
        # no pivot on the diagonal: the first step adds row and column 2
        # to 0, (0, 2) being the first nonzero off-diagonal entry
        lat = GramLattice.from_rows([[0, 0, 1], [0, 0, 2], [1, 2, 0]])
        assert tuple(signature(lat)) == (1, 1, 1)
        assert definiteness_witness(lat, 1) == (1, 0, 1)
        assert definiteness_witness(lat, -1) == (-1, 1, -1)
        assert definiteness_witness(lat, 0) == (-2, 1, 0)
        self.check(lat)

    def test_largest_pivot_first(self):
        # the rule pivots on |5| before the earlier 1, and the witness shows it
        lat = GramLattice.from_rows([[1, 2], [2, 5]])
        assert definiteness_witness(lat, 1) == (0, 1)
        self.check(lat)

    def test_signature_against_charpoly(self, suite_seed):
        for lat in [*congruence_inputs(suite_seed + 12), *k3_inputs()]:
            assert tuple(signature(lat)) == descartes_signature(lat.gram)

    def test_determinant_is_the_last_pivot(self, suite_seed):
        # the one congruence run of a lattice also gives det G: its last
        # pivot, 0 for a degenerate G, and 1 at rank 0
        degenerate = 0
        for lat in [*congruence_inputs(suite_seed + 13), *k3_inputs()]:
            det = sympy_det(lat.gram) if lat.rank else 1
            assert lat.determinant() == det
            degenerate += det == 0
        assert degenerate > 0


def dense(rows: linalg.SparseRows, ncols: int) -> list[list[int]]:
    out = [[0] * ncols for _ in rows]
    for row, entries in zip(out, rows):
        for j, x in entries:
            row[j] = x
    return out


class TestKeptInverseAndProjection:
    def test_inverse_against_sympy(self, suite_seed):
        # one Bareiss inverse per lattice object, (adj G by its nonzero
        # entries, det G); sympy's adjugate is too slow past rank 5, where
        # G adj G = det G I pins adj G down instead
        degenerate = 0
        for lat in [*congruence_inputs(suite_seed + 17), *k3_inputs(), k3_lattice()]:
            n = lat.rank
            if n and sympy_det(lat.gram) == 0:
                degenerate += 1
                with pytest.raises(ValueError, match="singular"):
                    lat._inverse
                continue
            adj, det = lat._inverse
            assert lat._inverse is lat._inverse
            assert det == (sympy_det(lat.gram) if n else 1)
            adj = dense(adj, n)
            if 0 < n <= 5:
                assert adj == [list(row) for row in sympy_adjugate(lat.gram)]
            assert dense_mat_mul(lat.gram, adj) == tuple(
                tuple(det * (i == j) for j in range(n)) for i in range(n))
        assert degenerate > 0

    def test_projection_solves_the_normal_equations(self, suite_seed):
        # P x / det G_S is the exact solution c of G_S c = B G x, so P
        # vanishes on S^perp; the Gram lattice of S is made once
        rng = random.Random(suite_seed + 19)
        subs = build_sublattices(DEFAULT_PRIMES)
        ambient = subs.ambient
        cases = [(subs.l, subs.tbar), (subs.tbar, subs.l), (subs.nbar, subs.t)]
        for _ in range(20):
            n = rng.randint(2, 5)
            amb = GramLattice.from_rows(seeded_symmetric(rng, n, "general"))
            k = rng.randint(1, n)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            if sympy_rank(rows) == k:
                cases.append((SublatticeEmbedding.from_rows(amb, rows), None))
        degenerate = 0
        for emb, perp in cases:
            amb, basis = emb.ambient, emb.basis
            gram = emb.induced_gram()
            assert gram is emb.induced_gram()
            bg = dense_mat_mul(basis, amb.gram)
            assert gram.gram == dense_mat_mul(bg, linalg.transpose(basis))
            if sympy_det(gram.gram) == 0:
                degenerate += 1
                with pytest.raises(ValueError, match="singular"):
                    emb._projection
                continue
            p = dense(emb._projection, amb.rank)
            det = gram._inverse[1]
            for _ in range(5):
                x = [rng.randint(-9, 9) for _ in range(amb.rank)]
                c = [Fraction(sum(a * b for a, b in zip(row, x)), det) for row in p]
                assert c == sympy_solve(gram.gram, [sum(a * b for a, b in zip(row, x))
                                                    for row in bg])
            if perp is not None:
                assert not any(any(row) for row in dense_mat_mul(
                    p, linalg.transpose(perp.basis)))
        assert degenerate > 0


class TestClassify:
    def test_elliptic(self):
        assert classify(E8) == LatticeClass.ELLIPTIC

    def test_hyperbolic(self):
        assert classify(direct_sum(U, E8)) == LatticeClass.HYPERBOLIC

    def test_other(self):
        assert classify(direct_sum(U, U)) == LatticeClass.OTHER

    def test_parabolic(self):
        assert classify(GramLattice.from_rows([[0]])) == LatticeClass.PARABOLIC


class TestSublattices:
    def test_saturation_divides_content(self):
        z2 = diagonal_lattice([1, 1])
        emb = SublatticeEmbedding.from_rows(z2, [[2, 0]])
        sat = saturation(emb)
        assert sat.basis == ((1, 0),)
        assert not is_primitive(emb)
        assert is_primitive(sat)

    def test_saturation_idempotent(self, suite_seed):
        rng = random.Random(suite_seed + 5)
        z4 = diagonal_lattice([1, 1, 1, 1])
        for _ in range(40):
            rows = [[rng.randint(-5, 5) for _ in range(4)]
                    for _ in range(rng.randint(1, 3))]
            if linalg.rational_rank(linalg.freeze(rows)) != len(rows):
                continue
            emb = SublatticeEmbedding.from_rows(z4, rows)
            sat = saturation(emb)
            assert is_primitive(sat)
            assert saturation(sat).spans_same(sat)

    def test_full_lattice_saturated(self):
        emb = SublatticeEmbedding.from_rows(U, linalg.identity(2))
        assert saturation(emb).spans_same(emb)

    def test_primitive_vector_with_prime_coord(self):
        emb = SublatticeEmbedding.from_rows(U, [[1, -97]])
        assert is_primitive(emb)

    def test_complement_in_u(self):
        e = SublatticeEmbedding.from_rows(U, [[1, 1]])
        assert orthogonal_complement(e).basis == ((1, -1),)

    def test_isotropic_self_orthogonal(self):
        e = SublatticeEmbedding.from_rows(U, [[1, 0]])
        assert orthogonal_complement(e).basis == ((1, 0),)

    def test_complement_pairs_to_zero_and_rank(self, suite_seed):
        rng = random.Random(suite_seed + 6)
        amb = direct_sum(U, E8)
        for _ in range(25):
            rows = [[rng.randint(-3, 3) for _ in range(10)]
                    for _ in range(rng.randint(1, 4))]
            if linalg.rational_rank(linalg.freeze(rows)) != len(rows):
                continue
            emb = SublatticeEmbedding.from_rows(amb, rows)
            comp = orthogonal_complement(emb)
            for a in emb.basis:
                for b in comp.basis:
                    assert amb.pairing(a, b) == 0
            assert saturation(emb).rank + comp.rank == amb.rank

    def test_index_of_sum(self):
        z2 = diagonal_lattice([1, 1])
        a = SublatticeEmbedding.from_rows(z2, [[1, 0]])
        b = SublatticeEmbedding.from_rows(z2, [[0, 1]])
        assert index_of_sum(a, b) == 1
        a2 = SublatticeEmbedding.from_rows(z2, [[2, 0]])
        b2 = SublatticeEmbedding.from_rows(z2, [[0, 2]])
        assert index_of_sum(a2, b2) == 4
        assert index_of_sum(a, a) is None


class TestDiscriminant:
    def test_unimodular(self):
        assert discriminant_group(U).order == 1
        assert discriminant_group(U).invariant_factors == ()

    def test_minus_two(self):
        d = discriminant_group(diagonal_lattice([-2]))
        assert d.invariant_factors == (2,)
        assert d.order == 2

    def test_a2(self):
        d = discriminant_group(GramLattice.from_rows([[2, 1], [1, 2]]))
        assert d.invariant_factors == (3,)

    def test_order_equals_det(self, suite_seed):
        rng = random.Random(suite_seed + 7)
        for _ in range(30):
            n = rng.randint(1, 5)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = rng.randint(-5, 5)
            lat = GramLattice.from_rows(g)
            det = lat.determinant()
            if det == 0:
                continue
            assert discriminant_group(lat).order == abs(det)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            discriminant_group(GramLattice.from_rows([[0]]))


def random_bases(seed, count=40, n=5):
    """Independent bases of rank 1..n in Z^n; some rows are scaled or
    glued so that the basis spans a sublattice that is not primitive."""
    rng = random.Random(seed)
    amb = diagonal_lattice([1] * n)
    out = []
    while len(out) < count:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if rng.random() < 0.3:
            rows[0] = [rng.choice((2, 3, 6)) * x for x in rows[0]]
        if len(rows) > 1 and rng.random() < 0.3:
            rows[1] = [x + 2 * y for x, y in zip(rows[1], rows[0])]
        if sympy_rank(rows) == len(rows):
            out.append(SublatticeEmbedding.from_rows(amb, rows))
    return out


def k3_bases():
    for primes in (DEFAULT_PRIMES, SMALL_PRIME_SELECTION):
        subs = build_sublattices(primes)
        yield from (subs.nbar, subs.n, subs.l, subs.t, subs.tbar, subs.t_split)


class TestNormalFormRoutesAgainstSympySmith:
    """Primitivity and indices read HNFs, discriminant groups the Smith form
    of an HNF; each agrees with sympy's Smith form of the plain input."""

    def test_is_primitive(self, suite_seed):
        bases = random_bases(suite_seed + 21) + list(k3_bases())
        assert {is_primitive(emb) for emb in bases} == {True, False}
        for emb in bases:
            assert is_primitive(emb) == (set(sympy_invariant_factors(emb.basis)) == {1})

    def test_index_of_sum(self, suite_seed):
        bases = random_bases(suite_seed + 22)
        pairs = list(zip(bases[::2], bases[1::2]))
        for primes in (DEFAULT_PRIMES, SMALL_PRIME_SELECTION):
            subs = build_sublattices(primes)
            pairs += [(subs.l, subs.tbar), (subs.n, subs.tbar), (subs.nbar, subs.t)]
        seen = set()
        for a, b in pairs:
            factors = sympy_invariant_factors(linalg.row_stack(a.basis, b.basis))
            nonzero = [d for d in factors if d]
            expected = prod(nonzero) if len(nonzero) == a.ambient.rank else None
            assert index_of_sum(a, b) == expected
            seen.add(expected is None)
        assert seen == {True, False}

    def test_discriminant_group(self, suite_seed):
        grams = [lat for lat in congruence_inputs(suite_seed + 23) if lat.rank]
        degenerate = 0
        for lat in grams + list(k3_inputs()):
            factors = sympy_invariant_factors(lat.gram)
            if 0 in factors:
                degenerate += 1
                with pytest.raises(DegenerateLatticeError):
                    discriminant_group(lat)
                continue
            disc = discriminant_group(lat)
            assert disc.invariant_factors == tuple(d for d in factors if d > 1)
            assert disc.order == prod(factors)
        assert 0 < degenerate < len(grams)


class TestIndependenceCheck:
    def test_dependent_basis_rejected(self):
        for rows in ([[1, 2, 0], [2, 4, 0]], [[1, 0], [0, 1], [1, 1]], [[0, 0]]):
            with pytest.raises(ValueError):
                SublatticeEmbedding.from_rows(diagonal_lattice([1] * len(rows[0])), rows)

    def test_rank_runs_only_without_private_columns(self, monkeypatch):
        # echelon rows and rows with a column to themselves skip the rank;
        # any other basis is still checked by it
        calls = []
        rational_rank = linalg.rational_rank
        monkeypatch.setattr(linalg, "rational_rank",
                            lambda a: calls.append(a) or rational_rank(a))
        z3 = diagonal_lattice([1, 1, 1])
        for rows in ([[2, 5, 1], [0, 3, 7]], [[1, 0, 4], [5, 1, 0]], [[0, 4, 1]]):
            SublatticeEmbedding.from_rows(z3, rows)
        assert calls == []
        SublatticeEmbedding.from_rows(z3, [[1, 1, 0], [1, 2, 0]])
        assert len(calls) == 1

    def test_private_columns_imply_full_rank(self, suite_seed):
        rng = random.Random(suite_seed + 24)
        passed = 0
        for _ in range(300):
            rows = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(4)]
                    for _ in range(rng.randint(1, 4))]
            if _has_private_columns(linalg.freeze(rows)):
                passed += 1
                assert sympy_rank(rows) == len(rows)
        assert passed > 30


def block_diagonal_gram(rng):
    """A Gram matrix that is block diagonal under a random permutation of the
    coordinates, with its blocks: general ones, 1 x 1 zero ones and singular
    ones of rank >= 2 (A^T D A with A of one row fewer than columns)."""
    blocks = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("general", "zero", "singular"))
        if kind == "zero":
            blocks.append([[0]])
        elif kind == "general":
            blocks.append(seeded_symmetric(rng, rng.randint(1, 4), "general"))
        else:
            k = rng.randint(3, 4)
            a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k - 1)]
            d = [rng.choice((-2, -1, 1, 2)) for _ in range(k - 1)]
            blocks.append([[sum(a[r][i] * d[r] * a[r][j] for r in range(k - 1))
                            for j in range(k)] for i in range(k)])
    n = sum(len(b) for b in blocks)
    coords = rng.sample(range(n), n)
    g = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        place = coords[offset:offset + len(b)]
        for i, row in zip(place, b):
            for j, x in zip(place, row):
                g[i][j] = x
        offset += len(b)
    return g, blocks


class TestOrthogonalSummands:
    """Each lattice works per orthogonal summand; the whole matrix is the oracle."""

    def corpus(self, seed):
        rng = random.Random(seed)
        yield GramLattice.from_rows([]), []
        for _ in range(60):
            g, blocks = block_diagonal_gram(rng)
            yield GramLattice.from_rows(g), blocks

    def test_summands_are_the_connected_blocks(self, suite_seed):
        for lat, _ in self.corpus(suite_seed + 31):
            parts = lat.summands
            assert sorted(i for part in parts for i in part) == list(range(lat.rank))
            assert [part[0] for part in parts] == sorted(part[0] for part in parts)
            where = {i: k for k, part in enumerate(parts) for i in part}
            for i in range(lat.rank):
                for j in range(lat.rank):
                    if where[i] != where[j]:
                        assert lat.gram[i][j] == 0
            for part in parts:  # connected: a walk from its first coordinate reaches all
                reached, frontier = {part[0]}, [part[0]]
                while frontier:
                    i = frontier.pop()
                    new = {j for j in part if lat.gram[i][j]} - reached
                    reached |= new
                    frontier += new
                assert reached == set(part)

    def test_signature_and_determinant_against_sympy(self, suite_seed):
        seen = Counter()
        for lat, blocks in self.corpus(suite_seed + 32):
            assert tuple(signature(lat)) == descartes_signature(lat.gram)
            assert lat.determinant() == (sympy_det(lat.gram) if lat.rank else 1)
            seen["interleaved"] += len(blocks) > 1 and any(
                part != tuple(range(part[0], part[0] + len(part))) for part in lat.summands)
            seen["zero 1 x 1"] += [[0]] in blocks
            seen["singular rank >= 2"] += any(len(b) > 1 and sympy_det(b) == 0 for b in blocks)
        assert min(seen.values()) >= 5 and len(seen) == 3

    def test_inverse_against_the_whole_matrix(self, suite_seed):
        degenerate = 0
        for lat, _ in self.corpus(suite_seed + 33):
            try:
                adj, det = linalg.integral_inverse(lat.gram)
            except ValueError:
                degenerate += 1
                with pytest.raises(ValueError):
                    lat._inverse
                continue
            kept, kept_det = lat._inverse
            assert kept_det == det
            assert kept == linalg._nonzero_entries(adj)
        assert degenerate >= 10

    def test_radical_against_the_whole_kernel(self, suite_seed):
        ranks = Counter()
        for lat, _ in self.corpus(suite_seed + 34):
            rad = radical(lat)
            assert rad.basis == linalg.hermite_normal_form(linalg.integer_kernel(lat.gram))
            ranks[rad.rank] += 1
        assert ranks[0] >= 5 and sum(n for r, n in ranks.items() if r >= 2) >= 5


class TestRadical:
    def test_zero_form_full_line(self):
        assert radical(GramLattice.from_rows([[0]])).basis == ((1,),)

    def test_nondegenerate_trivial(self):
        assert radical(E8).rank == 0

    def test_quotient_of_split_toy(self):
        toy = GramLattice.from_rows([[0, 0], [0, -2]])
        assert quotient_by_radical(toy).gram == ((-2,),)

    def test_quotient_needs_rank_one(self):
        with pytest.raises(RadicalRankError):
            quotient_by_radical(U)


def seeded_parabolic(rng, k, copies=1):
    """(U^T (0 + D + ... + D) U, U, U^-1, D) for a random unimodular U and
    copies of a negative definite D of rank k: the radical is spanned by the
    first column of U^-1."""
    d = seeded_definite(rng, k, -1)
    g0 = direct_sum(GramLattice.from_rows([[0]]), *[d] * copies).gram
    u = random_unimodular(rng, k * copies + 1)
    gram = dense_mat_mul(linalg.transpose(u), dense_mat_mul(g0, u))
    u_inv = linalg.freeze([[int(x) for x in row] for row in sympy_inverse(u)])
    return GramLattice.from_rows(gram), u, u_inv, d


class TestRadicalCompletion:
    """The basis completion of a rank-1 radical against U^T (0 + D) U."""

    def test_seeded_parabolic_lattices(self, suite_seed):
        rng = random.Random(suite_seed + 61)
        non_unit = 0
        for _ in range(30):
            k = rng.randint(1, 4)
            lat, _, u_inv, d = seeded_parabolic(rng, k)
            column = tuple(row[0] for row in u_inv)
            v, rows = lat._radical_split
            assert v in (column, tuple(-x for x in column))
            assert rows[0] == v and len(rows) == k + 1
            assert sympy_det(rows) in (1, -1)
            non_unit += sorted(map(abs, v)) != [0] * k + [1]
            quot = quotient_by_radical(lat)
            assert tuple(signature(quot)) == (0, 0, k)
            assert abs(quot.determinant()) == abs(sympy_det(d.gram))
            # the quotient is D in another basis, so D is the oracle
            for n in range(-20, 0):
                found, witness = represents(lat, n)
                assert found == represents(quot, n)[0] == represents(d, n)[0]
                assert witness is None or lat.norm(witness) == n
            assert represents(lat, 0) == (True, v)
        assert non_unit >= 15

    def test_coordinates_are_additive(self, suite_seed):
        # g_a = U^-1 (I + e0 a^T) U fixes the radical and acts trivially on
        # the quotient, and g_a g_b = g_(a+b) for a, b with a_0 = 0
        rng = random.Random(suite_seed + 67)
        for _ in range(12):
            k = rng.randint(1, 5)
            lat, u, u_inv, _ = seeded_parabolic(rng, k)

            def g(a):
                shift = [[int(i == j) + (i == 0) * a[j] for j in range(k + 1)]
                         for i in range(k + 1)]
                return verify_isometry(dense_mat_mul(u_inv, dense_mat_mul(shift, u)), lat)

            a, b = ([0] + [rng.randint(-3, 3) for _ in range(k)] for _ in range(2))
            ca, cb = (parabolic_coordinates(g(x), lat) for x in (a, b))
            cab = parabolic_coordinates(g(a).compose(g(b)), lat)
            assert ca.sign == cb.sign == cab.sign == 1
            assert cab.vector == tuple(x + y for x, y in zip(ca.vector, cb.vector))
            assert (ca.vector == (0,) * k) == (a == [0] * (k + 1))

    def test_coordinates_against_the_dense_conjugation(self, suite_seed):
        # g = U^-1 h U for maps h of 0 + D + D that send e0 to s e0 and each
        # other e_i to p(e_i) + a_i e0, p fixing or swapping the two copies
        # of D: an isometry, with coordinates (a_1, ...) and sign s when p
        # is the identity; the swap breaks the quotient action, and so do
        # the non-isometries e0 -> 2 e0 and e0 -> 2 e0 + e1. The reader on the
        # kept completion gives the dense conjugation's coordinates or error
        rng = random.Random(suite_seed + 73)
        outcomes = Counter()

        def coordinates(read, *args):
            try:
                return read(*args)
            except QuotientActionError:
                return QuotientActionError

        for _ in range(24):
            k = rng.randint(1, 3)
            lat, u, u_inv, _ = seeded_parabolic(rng, k, 2)
            r = 2 * k + 1
            for s, swap in ((1, False), (-1, False), (1, True), (-1, True), (2, False)):
                h = [[int(i == j) for j in range(r)] for i in range(r)]
                if swap:
                    h[1:] = h[k + 1:] + h[1:k + 1]
                h[0] = [s] + [rng.randint(-3, 3) for _ in range(r - 1)]
                if s == 2:
                    h[1][0] = rng.randint(0, 1)  # e0 -> 2 e0 or 2 e0 + e1
                m = linalg.freeze(dense_mat_mul(u_inv, dense_mat_mul(h, u)))
                g = verify_isometry(m, lat) if s != 2 else LatticeIsometry(lat, m)
                expected = coordinates(dense_unipotent_coordinates, m, lat._radical_split[1])
                assert coordinates(parabolic_coordinates, g, lat) == expected
                outcomes[expected if expected is QuotientActionError else expected.sign] += 1
        assert outcomes[1] == outcomes[-1] == 24
        assert outcomes[QuotientActionError] == 3 * 24

    def test_unit_radical_gets_the_identity_rows(self):
        lat = direct_sum(GramLattice.from_rows([[0]]), E8)
        assert lat._radical_split == ((1,) + (0,) * 8, linalg.identity(9))
        n_lat = build_sublattices(DEFAULT_PRIMES).n.induced_gram()
        assert n_lat._radical_split == ((1,) + (0,) * 18, linalg.identity(19))

    def test_represents_keeps_the_radical_split(self, suite_seed, monkeypatch):
        # the radical, its Smith run, the kernel and the section's Gram
        # lattice are made once per lattice, not once per represents call
        rng = random.Random(suite_seed + 71)
        lat, _, _, _ = seeded_parabolic(rng, 4)
        # each fresh copy of the lattice makes its own split
        fresh = [represents(GramLattice(lat.gram), n) for n in range(-20, 0)]
        runs = []
        smith = linalg.smith_normal_form

        def counted(a):
            runs.append(a)
            return smith(a)

        monkeypatch.setattr(linalg, "smith_normal_form", counted)
        assert [represents(lat, n) for n in range(-20, 0)] == fresh
        assert quotient_by_radical(lat) == quotient_by_radical(GramLattice(lat.gram))
        assert len(runs) == 2  # lat once, the fresh copy of the last line once


class TestVectorsOfNorm:
    def test_repeated_calls_read_the_kept_congruence_run(self, suite_seed, monkeypatch):
        # represents on a parabolic lattice and vectors_of_norm on a definite
        # one read the congruence runs the lattices keep: 20 calls make one
        # run per summand (of the lattice and of its quotient by the radical)
        rng = random.Random(suite_seed + 79)
        parabolic = seeded_parabolic(rng, 2, 2)[0]
        definite = direct_sum(seeded_definite(rng, 3, -1), seeded_definite(rng, 3, -1))
        targets = range(-20, 0)
        # each fresh copy makes its own runs for its one call
        fresh = [represents(GramLattice(parabolic.gram), n) for n in targets]
        vectors = [vectors_of_norm(GramLattice(definite.gram), n) for n in targets]
        assert any(found for found, _ in fresh) and any(vectors)
        runs = []
        core = lattice_module._congruence_bareiss

        def counted(rows, n):
            runs.append(n)
            return core(rows, n)

        monkeypatch.setattr(lattice_module, "_congruence_bareiss", counted)
        assert [represents(parabolic, n) for n in targets] == fresh
        quotient = quotient_by_radical(parabolic)
        assert sorted(runs) == sorted(map(len, parabolic.summands + quotient.summands))
        runs.clear()
        assert [vectors_of_norm(definite, n) for n in targets] == vectors
        assert sorted(runs) == sorted(map(len, definite.summands))

    def test_e8_roots(self):
        pairs = vectors_of_norm(E8, -2)
        assert len(pairs) == 120

    def test_single_minus_two(self):
        assert vectors_of_norm(diagonal_lattice([-2]), -2) == [(1,)]

    def test_scaled_e8_has_none(self):
        scale = 7
        g = [[E8.gram[i][j] * scale * scale for j in range(8)] for i in range(8)]
        assert vectors_of_norm(GramLattice.from_rows(g), -2) == []

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteLatticeError):
            vectors_of_norm(U, 2)

    def test_against_naive_box_search(self, suite_seed):
        rng = random.Random(suite_seed + 8)
        trials = 0
        while trials < 20:
            n = rng.randint(1, 4)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = 2 * rng.randint(1, 4)
            for i in range(n):
                for j in range(i):
                    g[i][j] = g[j][i] = rng.randint(-1, 1)
            lat = GramLattice.from_rows(g)
            if tuple(signature(lat)) != (n, 0, 0):
                continue
            trials += 1
            target = 2 * rng.randint(1, 6)
            ours = vectors_of_norm(lat, target)
            naive = naive_vectors_of_norm(lat.gram, target)
            assert ours == naive

    def test_canonical_order(self):
        pairs = vectors_of_norm(E8, -2)
        assert pairs == sorted(pairs)
        for v in pairs:
            first = next(c for c in v if c != 0)
            assert first > 0


def seeded_definite(rng, n, sign):
    """sign (B^T B + I) for a random n x n matrix B with entries in -1..1."""
    b = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    return GramLattice.from_rows(
        [[sign * (sum(row[i] * row[j] for row in b) + (i == j)) for j in range(n)]
         for i in range(n)])


class TestVectorsOfNormAgainstFractionDescent:
    """The integer descent on the symmetric core against the rational LDL^T one."""

    def check(self, lat, target):
        ours = vectors_of_norm(lat, target)
        assert ours == fraction_vectors_of_norm(lat.gram, target)
        assert all(lat.norm(v) == target for v in ours)
        return ours

    def test_seeded_definite_lattices(self, suite_seed):
        rng = random.Random(suite_seed + 13)
        found = 0
        for n in range(1, 9):
            for sign in (1, -1):
                for _ in range(3):
                    lat = seeded_definite(rng, n, sign)
                    for target in range(-6, 7):
                        found += len(self.check(lat, target))
        assert found > 0

    def test_e8(self):
        assert len(self.check(E8, -2)) == 120
        assert len(self.check(E8, -4)) == 1080
        assert self.check(E8, 2) == []

    def test_k3_quotient_of_n(self):
        quotient = quotient_by_radical(build_sublattices(DEFAULT_PRIMES).n.induced_gram())
        assert tuple(signature(quotient)) == (0, 0, 18)
        found = {target: self.check(quotient, target) for target in (-2, -4, -6, -8, 2)}
        assert found[-2] == [] and found[2] == []


class TestRepresents:
    def test_parabolic_no_minus_two(self):
        # rank-2 parabolic whose definite part is scaled far from -2
        lat = direct_sum(GramLattice.from_rows([[0]]), diagonal_lattice([-8]))
        ok, witness = represents(lat, -2)
        assert not ok and witness is None

    def test_parabolic_with_witness(self):
        lat = direct_sum(GramLattice.from_rows([[0]]), diagonal_lattice([-2]))
        ok, witness = represents(lat, -2)
        assert ok
        assert lat.norm(witness) == -2

    def test_unsupported(self):
        with pytest.raises(UnsupportedSignatureError):
            represents(direct_sum(U, U), -2)

    def test_parabolic_agrees_with_quotient(self):
        lat = direct_sum(GramLattice.from_rows([[0]]),
                         GramLattice.from_rows([[-2, 1], [1, -4]]))
        quot = quotient_by_radical(lat)
        for n in range(-20, 1, 2):
            ours, _ = represents(lat, n)
            if n == 0:
                assert ours
                continue
            reference, _ = represents(quot, n)
            assert ours == reference


@st.composite
def orthogonal_pieces(draw, kinds=("definite", "definite", "zero", "parabolic")):
    """1 to 4 lattices of total rank at most 9 of the given kinds: seeded
    definite blocks of one sign, the zero form of rank 1 and seeded parabolic
    U^T (0 + D) U."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    sign = draw(st.sampled_from((1, -1)))
    pieces, room = [], 9
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        n = draw(st.integers(1, min(4, room))) if room else 0
        if n == 0:
            break
        if kind == "zero":
            piece = GramLattice.from_rows([[0]])
        elif kind == "parabolic" and n > 1:
            piece = seeded_parabolic(rng, n - 1)[0]
            piece = GramLattice.from_rows(linalg.mat_scale(piece.gram, -sign))
        else:
            piece = seeded_definite(rng, n, sign)
        pieces.append(piece)
        room -= piece.rank
    return pieces


def answers(lat):
    """What a lattice answers, each failure by its type."""
    def attempt(f, *args):
        try:
            return f(*args)
        except ValueError as exc:
            return type(exc)

    return (lat.summands, signature(lat), lat.determinant(), attempt(lambda: lat._inverse),
            [attempt(represents, lat, t) for t in range(-6, 7)],
            [attempt(vectors_of_norm, lat, t) for t in (-4, -2, 2, 4)])


class TestSharedParts:
    """Lattices built from pieces hold the pieces' parts, and answer as the
    same Gram matrix built fresh, which reduces every block itself."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(orthogonal_pieces())
    def test_direct_sum(self, pieces):
        total = direct_sum(*pieces)
        assert list(map(id, total._parts)) == [id(p) for lat in pieces for p in lat._parts]
        assert answers(total) == answers(GramLattice(total.gram))

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(orthogonal_pieces(), st.integers(0, 2**32))
    def test_bordered_embedding(self, pieces, seed):
        # the first piece's coordinates border an embedding of the others,
        # by unit rows or by sums of them, or by a row that pairs with the
        # kept basis; that basis is the unit rows of the others, some doubled
        # or summed, and at times one meets a bordering coordinate
        if len(pieces) < 2:
            return
        rng = random.Random(seed)
        ambient = direct_sum(*pieces)
        k, n = pieces[0].rank, ambient.rank
        unit = linalg.identity(n)
        kept_rows = [list(unit[i]) for i in range(k, n)]
        for row in kept_rows:
            if rng.random() < 0.2:
                row[:] = [2 * x for x in row]
        if len(kept_rows) > 1 and rng.random() < 0.3:
            kept_rows[0] = [x + y for x, y in zip(kept_rows[0], kept_rows[1])]
        added = [list(unit[i]) for i in range(k)]
        move = rng.choice(("none", "none", "sum", "meet kept", "kept meets", "double"))
        if move == "double":
            added[0] = [2 * x for x in added[0]]
        elif move == "kept meets":
            kept_rows[0] = [x + y for x, y in zip(kept_rows[0], unit[rng.randrange(k)])]
        elif move == "meet kept" or (move == "sum" and k > 1):
            j = rng.randrange(1, k) if move == "sum" else rng.randrange(k, n)
            added[0] = [x + y for x, y in zip(added[0], unit[j])]
        kept = SublatticeEmbedding.from_rows(ambient, kept_rows)
        emb = kept.bordered(added)
        fresh = SublatticeEmbedding(ambient, emb.basis)
        assert emb == fresh and emb._kept is kept and fresh._kept is None
        assert emb._pairing_rows == fresh._pairing_rows
        assert is_primitive(emb) == is_primitive(fresh)
        lat = emb.induced_gram()
        assert lat == fresh.induced_gram()
        kept_parts = list(map(id, kept.induced_gram()._parts))
        orthogonal = not any(ambient.pairing(a, b) for a in added for b in kept_rows)
        assert (list(map(id, lat._parts[-len(kept_parts):])) == kept_parts) == orthogonal
        assert answers(lat) == answers(fresh.induced_gram())

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(orthogonal_pieces(kinds=("definite",)), st.integers(0, 4))
    def test_quotient_by_a_zero_summand(self, pieces, at):
        # with e_j the zero form among definite pieces (parabolic when they
        # are negative), the quotient by the radical is the Gram matrix
        # without e_j and holds the other parts
        at = min(at, len(pieces))
        lat = direct_sum(*pieces[:at], GramLattice.from_rows([[0]]), *pieces[at:])
        fresh = GramLattice(lat.gram)
        assert signature(fresh).n_zero == 1
        quotient = quotient_by_radical(lat)
        v, rows = fresh._radical_split
        j = sum(piece.rank for piece in pieces[:at])
        assert v == linalg.identity(lat.rank)[j]
        assert quotient == SublatticeEmbedding(fresh, rows[1:]).induced_gram()
        assert list(map(id, quotient._parts)) == [
            id(part) for coords, part in zip(lat.summands, lat._parts) if coords != (j,)]
        assert answers(quotient) == answers(GramLattice(quotient.gram))
        assert answers(lat) == answers(fresh)
