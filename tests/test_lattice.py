import random
from fractions import Fraction

import pytest

from salemlat import linalg
from salemlat.k3 import DEFAULT_PRIMES, build_sublattices
from salemlat.lattice import (
    DegenerateLatticeError,
    GramLattice,
    IndefiniteLatticeError,
    LatticeClass,
    RadicalRankError,
    SublatticeEmbedding,
    UnsupportedSignatureError,
    _congruence_bareiss,
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

from oracles import (
    descartes_signature,
    fraction_definiteness_witness,
    fraction_vectors_of_norm,
    naive_vectors_of_norm,
    signature_with_basis,
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


class TestVectorsOfNorm:
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
