"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL
lines; each criterion pins its tolerance and runtime budget.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import property_suites as ps
from oracles import numeric_salem_oracle, restrict_to_embedding
from salemlat import linalg
from salemlat.intpoly import IntPolynomial, poly_from_string
from salemlat.k3 import (
    DEFAULT_PRIMES,
    build_phi,
    build_sublattices,
    extend_to_lambda,
    extension_order,
    minimal_primitive_sublattice,
    period_point,
    run_k3,
)
from salemlat.lattice import (
    GramLattice,
    SublatticeEmbedding,
    diagonal_lattice,
    direct_sum,
    e8_minus_one,
    vectors_of_norm,
)
from salemlat.parabolic import parabolic_group_rank
from salemlat.salem import SalemCertificate, classify_salem, enumerate_salem

P = IntPolynomial.from_coeffs


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL"
              f" [{time.monotonic() - start:.1f}s]")
        raise
    print(f"criterion {number} ({label}): PASS"
          f" [{time.monotonic() - start:.1f}s]")


def monic_reciprocal_box(degree: int, bound: int):
    half = degree // 2
    for free in itertools.product(range(-bound, bound + 1), repeat=half):
        body = list(free) + list(reversed(free[:-1]))
        yield P([1] + body + [1])


def test_criterion_1_salem_oracle_equivalence():
    with criterion(1, "salem classifier agrees with the numeric oracle"):
        start = time.monotonic()
        disagreements = []
        for degree in (4, 6):
            for p in monic_reciprocal_box(degree, 3):
                ours = classify_salem(p, Fraction(1, 10**12))
                is_salem, alpha = numeric_salem_oracle(p)
                if isinstance(ours, SalemCertificate) != is_salem:
                    disagreements.append(p.coeffs)
                    continue
                if is_salem:
                    iv = ours.salem_number_interval
                    if not float(iv.lo) <= alpha <= float(iv.hi):
                        disagreements.append(p.coeffs)
        assert disagreements == []
        assert time.monotonic() - start < 300


def test_criterion_2_enumeration_degree_4():
    with criterion(2, "enumerate_salem(4, 1, 1) complete and exact"):
        start = time.monotonic()
        certs = enumerate_salem(4, 1, 1)
        got = [c.polynomial.coeffs for c in certs]
        assert got == [(1, -1, -3, -1, 1), (1, -1, -2, -1, 1),
                       (1, -1, -1, -1, 1)]
        brute = sorted(
            p.coeffs for p in monic_reciprocal_box(4, 14)
            if isinstance(out := classify_salem(p), SalemCertificate)
            and out.trace == 1)
        assert got == brute
        assert time.monotonic() - start < 60


def test_criterion_3_lehmer():
    with criterion(3, "Lehmer polynomial enclosure"):
        lehmer = poly_from_string("1,1,0,-1,-1,-1,-1,-1,0,1,1")
        cert = classify_salem(lehmer, Fraction(1, 10**9))
        assert isinstance(cert, SalemCertificate)
        iv = cert.salem_number_interval
        assert Fraction("1.176280") <= iv.lo <= iv.hi <= Fraction("1.176281")


def test_criterion_4_e8_roots():
    with criterion(4, "240 norm -2 vectors in E8(-1)"):
        start = time.monotonic()
        pairs = vectors_of_norm(e8_minus_one(), -2)
        assert len(pairs) == 120
        assert 2 * len(pairs) == 240
        assert time.monotonic() - start < 10


def test_criterion_5_k3_pipeline():
    with criterion(5, "rank-19 construction with default primes"):
        start = time.monotonic()
        report = run_k3(DEFAULT_PRIMES)
        named = {c.name: c.passed for c in report.checks}
        assert named["n_rank_19"] and named["n_parabolic"]
        assert named["l_rank_20"] and named["l_hyperbolic"]
        assert named["n_primitive"] and named["l_primitive"]
        assert named["n_does_not_represent_minus_two"]
        assert named["phi_isometries_on_l"] and named["extensions_integral"]
        assert named["phis_commute"]
        assert named["phis_fix_e0"] and named["phis_fix_t_pointwise"]
        assert report.group_rank == 18
        assert report.all_passed
        assert time.monotonic() - start < 600


def test_criterion_6_period_identities():
    with criterion(6, "period identities and minimal sublattice"):
        tbar = GramLattice.from_rows([[2, 1], [1, 2]])
        t = GramLattice.from_rows([[0, 0, 0], [0, 2, 1], [0, 1, 2]])
        # period_point verifies (sigma, sigma) = 0 and
        # (sigma, conj sigma) = A/a exactly, raising on any deviation
        sigma = period_point(tbar, t)
        assert sigma.a_param == 3
        from salemlat.k3 import _period_pairing

        self_pairing = _period_pairing(t.gram, sigma.coordinates,
                                       sigma.coordinates)
        assert self_pairing.is_zero
        conj = _period_pairing(t.gram, sigma.coordinates,
                               tuple(x.conjugate() for x in sigma.coordinates))
        assert conj.parts == (Fraction(3), Fraction(0), Fraction(0),
                              Fraction(0))
        minimal = minimal_primitive_sublattice(sigma, t)
        assert minimal.spans_same(
            SublatticeEmbedding.from_rows(t, linalg.identity(3)))


def test_criterion_7_property_suites(suite_seed):
    with criterion(7, "five seeded 1000-case property suites"):
        assert ps.suite_eigenvalue_bound(suite_seed, 1000) == []
        assert ps.suite_salem_dichotomy(suite_seed, 1000) == []
        det_violations, salem_count = ps.suite_salem_determinant(suite_seed, 1000)
        assert det_violations == []
        assert salem_count > 0
        assert ps.suite_express_roundtrip(suite_seed, 1000) == []
        assert ps.suite_entropy_power_rule(suite_seed, 1000) == []


def test_criterion_8_toy_phi():
    with criterion(8, "toy unipotent isometry on U + <-2>"):
        toy = GramLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
        phi = build_phi(1, toy)
        assert phi.matrix == ((1, 1, -2), (0, 1, 0), (0, -1, 1))
        assert extension_order(phi, toy) == 1


def test_criterion_9_parabolic_rank_bound():
    with criterion(9, "parabolic rank bound attained at 18"):
        # bound respected on a corpus of parabolic lattices
        corpus = [
            direct_sum(GramLattice.from_rows([[0]]), diagonal_lattice([-2])),
            direct_sum(GramLattice.from_rows([[0]]),
                       diagonal_lattice([-2, -8])),
            direct_sum(GramLattice.from_rows([[0]]),
                       GramLattice.from_rows([[-2, 1], [1, -4]])),
        ]
        from salemlat.isometry import verify_isometry

        for lat in corpus:
            r = lat.rank
            gens = []
            for shift in range(1, r):
                m = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
                m[0][shift] = 2 * shift
                gens.append(verify_isometry(m, lat))
            rank = parabolic_group_rank(gens, lat)
            assert rank <= r - 1
        # the eighteen ambient generators restricted to N attain 19 - 1
        subs = build_sublattices(DEFAULT_PRIMES)
        l_lat = subs.l.induced_gram()
        n_lat = subs.n.induced_gram()
        restricted = []
        for i in range(1, 19):
            phi = build_phi(i, l_lat)
            big = extend_to_lambda(phi.power(extension_order(phi, l_lat)),
                                   subs.l, subs.tbar)
            restricted.append(restrict_to_embedding(big, subs.n))
        rank = parabolic_group_rank(restricted, n_lat)
        assert rank == 18 == n_lat.rank - 1
