"""Command line surface.

Every subcommand emits one JSON certificate with a fixed schema and key
order, so identical inputs give byte-identical output. Exit codes:
0 all checks pass, 1 some check fails, 2 usage or input validation
error, 3 I/O failure, 4 internal error (an identity the construction
guarantees did not hold).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, serialize
from .intpoly import poly_from_string
from .isometry import FiniteOrder, char_poly, classify_isometry, verify_isometry
from .isometry import GramViolationError, DeterminantError
from .k3 import DEFAULT_PRIMES, PrimeSelection, run_k3
from .lattice import (
    classify,
    discriminant_group,
    radical,
    signature,
    vectors_of_norm,
)
from .parabolic import abelian_rank_of_image
from .rational import json_fields, parse_rational
from .salem import SalemCertificate, classify_salem, enumerate_salem

SCHEMA = "salem-lattice/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _certificate(command: dict, result, checks: list[dict]) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "result": result,
        "checks": checks,
    }


def _load_json(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _emit(cert: dict, output: str | None) -> None:
    text = serialize.dumps_certificate(cert)
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_salem_test(args) -> tuple[dict, list[dict]]:
    poly = poly_from_string(args.poly)
    precision = parse_rational(args.precision)
    outcome = classify_salem(poly, precision)
    if isinstance(outcome, SalemCertificate):
        result = serialize.salem_certificate_to_json(outcome)
        checks = [{"name": "salem", "pass": True}]
    else:
        result = serialize.salem_rejection_to_json(outcome)
        checks = [{"name": "salem", "pass": False}]
    return result, checks


def _cmd_salem_enum(args) -> tuple[dict, list[dict]]:
    certs = enumerate_salem(args.degree, args.trace_min, args.trace_max)
    result = {
        "count": len(certs),
        "polynomials": [serialize.salem_certificate_to_json(c) for c in certs],
    }
    return result, []


def _cmd_lattice_info(args) -> tuple[dict, list[dict]]:
    lat = serialize.lattice_from_json(_load_json(args.lattice))
    sig = signature(lat)
    cls = classify(lat)
    result = {
        "rank": lat.rank,
        "signature": list(sig),
        "class": cls.value,
        "even": lat.even,
        "radical_rank": radical(lat).rank,
    }
    if lat.determinant() != 0:
        result["discriminant_group"] = serialize.discriminant_to_json(
            discriminant_group(lat))
    return result, []


def _cmd_lattice_vectors(args) -> tuple[dict, list[dict]]:
    lat = serialize.lattice_from_json(_load_json(args.lattice))
    vecs = vectors_of_norm(lat, args.norm)
    result = {
        "norm": args.norm,
        "sign_pairs": len(vecs),
        "vector_count": 2 * len(vecs),
        "vectors": [[str(x) for x in v] for v in vecs],
    }
    return result, []


def _cmd_isom_classify(args) -> tuple[dict, list[dict]]:
    lat = serialize.lattice_from_json(_load_json(args.lattice))
    matrix = serialize.matrix_from_json(*json_fields(_load_json(args.matrix), "matrix"))
    try:
        g = verify_isometry(matrix, lat)
    except GramViolationError as exc:
        return ({"error": str(exc)},
                [{"name": "gram_preserved", "pass": False,
                  "witness": [str(x) for x in exc.witness]}])
    except DeterminantError as exc:
        return ({"error": str(exc)},
                [{"name": "determinant_unit", "pass": False}])
    cls = classify_isometry(g)
    k = cls.order if isinstance(cls, FiniteOrder) else None
    result = {
        "char_poly": serialize.poly_to_json(char_poly(g)),
        "determinant": g.determinant(),
        "order": k if k is not None else "infinite",
        "classification": serialize.classification_to_json(cls),
    }
    checks = [{"name": "gram_preserved", "pass": True},
              {"name": "determinant_unit", "pass": True}]
    return result, checks


def _cmd_k3_run(args) -> tuple[dict, list[dict]]:
    if args.config:
        primes = PrimeSelection.from_dict(_load_json(args.config))
    else:
        primes = DEFAULT_PRIMES
    report = run_k3(primes, skip_extension=args.skip_extension)
    result = serialize.report_to_json(report)
    checks = result.pop("checks")
    return result, checks


def _cmd_rank(args) -> tuple[dict, list[dict]]:
    vectors = serialize.matrix_from_json(*json_fields(_load_json(args.vectors), "vectors"))
    result = {"rank": abelian_rank_of_image(list(vectors))}
    return result, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salemlat",
        description="Exact Salem polynomial and lattice isometry toolkit")
    parser.add_argument("--output", help="write the certificate to a file")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("salem-test", help="classify one polynomial")
    p.add_argument("--poly", required=True,
                   help="comma separated ascending coefficients")
    p.add_argument("--precision", default="1/1000000")
    p.set_defaults(func=_cmd_salem_test)

    p = sub.add_parser("salem-enum", help="enumerate Salem polynomials")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trace-min", type=int, required=True)
    p.add_argument("--trace-max", type=int, required=True)
    p.set_defaults(func=_cmd_salem_enum)

    p = sub.add_parser("lattice-info", help="signature and classification")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.set_defaults(func=_cmd_lattice_info)

    p = sub.add_parser("lattice-vectors", help="vectors of a given norm")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--norm", type=int, required=True)
    p.set_defaults(func=_cmd_lattice_vectors)

    p = sub.add_parser("isom-classify", help="verify and classify an isometry")
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_isom_classify)

    p = sub.add_parser("k3-run", help="run the rank-19 construction pipeline")
    p.add_argument("--config", help="prime selection JSON file")
    p.add_argument("--skip-extension", action="store_true",
                   help="stop after the structural lattice checks")
    p.set_defaults(func=_cmd_k3_run)

    p = sub.add_parser("rank", help="rank of an integer vector family")
    p.add_argument("--vectors", required=True, help="vectors JSON file")
    p.set_defaults(func=_cmd_rank)

    return parser


def _command_echo(args) -> dict:
    skip = {"func", "output"}
    return {"subcommand": args.subcommand,
            **{k: v for k, v in sorted(vars(args).items())
               if k not in skip and k != "subcommand" and v is not None}}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        result, checks = args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    cert = _certificate(_command_echo(args), result, checks)
    try:
        _emit(cert, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if all(c["pass"] for c in checks):
        return EXIT_OK
    return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
