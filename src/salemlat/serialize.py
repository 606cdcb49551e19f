"""JSON wire formats.

Polynomials serialize as arrays of decimal integer strings in ascending
degree order; lattice data keeps every integer as a decimal string so
that consumers without big integers survive. Key order is fixed
everywhere so identical inputs produce byte-identical certificates.
"""

from __future__ import annotations

import json

from .intpoly import IntPolynomial
from .isometry import FiniteOrder, MixedSpectrum, SalemType
from .k3 import CheckResult, K3ConstructionReport, PrimeSelection
from .lattice import DiscriminantGroup, GramLattice
from .rational import RationalInterval, format_rational, json_fields, parse_int, parse_ints
from .salem import SalemCertificate, SalemRejection


def poly_to_json(p: IntPolynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def interval_to_json(iv: RationalInterval) -> dict:
    return {"lo": format_rational(iv.lo), "hi": format_rational(iv.hi)}


def salem_certificate_to_json(cert: SalemCertificate) -> dict:
    return {
        "polynomial": poly_to_json(cert.polynomial),
        "degree": cert.degree,
        "trace": cert.trace,
        "salem_lo": format_rational(cert.salem_number_interval.lo),
        "salem_hi": format_rational(cert.salem_number_interval.hi),
        "quadratic": cert.is_quadratic,
    }


def salem_rejection_to_json(rej: SalemRejection) -> dict:
    return {"salem": False, "reason": rej.reason.value, "detail": rej.detail}


def matrix_to_json(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def matrix_from_json(data) -> tuple[tuple[int, ...], ...]:
    """A JSON list of rows, each a list of integers read by parse_int."""
    if not isinstance(data, list):
        raise ValueError(f"expected a list of rows, got {type(data).__name__}")
    return tuple(map(parse_ints, data))


def lattice_from_json(data) -> GramLattice:
    gram, rank = json_fields(data, "gram", "rank")
    lat = GramLattice(matrix_from_json(gram))
    if lat.rank != parse_int(rank):
        raise ValueError("rank field disagrees with the gram matrix")
    return lat


def discriminant_to_json(d: DiscriminantGroup) -> dict:
    return {
        "invariant_factors": [str(f) for f in d.invariant_factors],
        "order": str(d.order),
    }


def classification_to_json(cls) -> dict:
    if isinstance(cls, FiniteOrder):
        return {
            "kind": "finite_order",
            "order": cls.order if cls.order is not None else "infinite",
        }
    if isinstance(cls, SalemType):
        return {
            "kind": "salem",
            "certificate": salem_certificate_to_json(cls.certificate),
            "determinant": cls.determinant,
        }
    if isinstance(cls, MixedSpectrum):
        return {
            "kind": "mixed",
            "factors": [poly_to_json(f) for f in cls.factors],
        }
    raise TypeError(f"not a classification: {cls!r}")


def primes_to_json(primes: PrimeSelection) -> dict:
    return {
        "p": primes.p,
        "q": primes.q,
        "p_list": list(primes.p_list),
        "q_list": list(primes.q_list),
    }


def check_to_json(check: CheckResult) -> dict:
    out: dict = {"name": check.name, "pass": check.passed}
    if check.witness is not None:
        out["witness"] = [str(x) for x in check.witness]
    if check.detail:
        out["detail"] = check.detail
    return out


def report_to_json(report: K3ConstructionReport) -> dict:
    out: dict = {
        "primes": primes_to_json(report.primes),
        "checks": [check_to_json(c) for c in report.checks],
    }
    if report.disc_order is not None:
        out["disc_order"] = str(report.disc_order)
    if report.sum_index_l_tbar is not None:
        out["sum_index_l_tbar"] = str(report.sum_index_l_tbar)
    if report.n_plus_t_corank is not None:
        out["n_plus_t_corank"] = report.n_plus_t_corank
    if report.tbar_gram is not None:
        out["tbar_gram"] = matrix_to_json(report.tbar_gram)
    if report.quartic_a is not None:
        out["quartic_A"] = str(report.quartic_a)
    if report.extension_orders is not None:
        out["extension_orders"] = [str(k) for k in report.extension_orders]
    if report.alpha_vectors is not None:
        out["alpha_vectors"] = [[str(m) for m in vec] for vec in report.alpha_vectors]
    if report.group_rank is not None:
        out["group_rank"] = report.group_rank
    return out


def dumps_certificate(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
