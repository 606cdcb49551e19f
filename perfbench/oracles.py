"""Independent checks of certificate texts, run outside the timed loop.

Nothing here imports salemlat: the checks use sympy, mpmath, numpy and
exact fractions on the inputs and on the certificate JSON. Each check returns a
list of problems; an empty list means the certificate is right.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from inputs import nbar_is_definite

# Working precision of the mpmath root checks, in decimal digits.
DPS = 60

# Slack for float64 spectral radii.
NUMERIC_TOL = 1e-9


def _checks_by_name(cert: dict) -> dict[str, bool]:
    return {c["name"]: c["pass"] for c in cert["checks"]}


def k3_certify(inp: dict, cert: dict) -> list[str]:
    problems = [f"check {name} failed"
                for name, ok in _checks_by_name(cert).items() if not ok]
    if cert.get("group_rank") != 18:
        problems.append(f"group_rank {cert.get('group_rank')!r}, expected 18")
    if len(cert.get("alpha_vectors", ())) != 18:
        problems.append("expected 18 alpha vectors")
    return problems


def k3_scan(inp: dict, cert: dict) -> list[str]:
    expected = nbar_is_definite(inp)
    got = _checks_by_name(cert).get("nbar_elliptic_rank_18")
    if got is not expected:
        return [f"nbar_elliptic_rank_18 is {got}, closed form says {expected}"]
    return []


def _largest_real_root(coeffs_ascending: list[int]) -> mpmath.mpf | None:
    roots = mpmath.polyroots(list(reversed(coeffs_ascending)),
                             maxsteps=200, extraprec=4 * DPS)
    tol = mpmath.mpf(10) ** (-DPS // 2)
    return max((mpmath.re(r) for r in roots if abs(mpmath.im(r)) < tol), default=None)


def _mpf(text: str) -> mpmath.mpf:
    x = Fraction(text)
    return mpmath.mpf(x.numerator) / x.denominator


def salem_enum(inp: dict, cert: dict) -> list[str]:
    windows = cert["windows"]
    if [w["trace"] for w in windows] != inp["traces"]:
        return ["windows differ from the requested traces"]
    problems = []
    for window in windows:
        problems += _salem_window(inp["degree"], window)
    return problems


def _salem_window(degree: int, window: dict) -> list[str]:
    problems = []
    polys = window["polynomials"]
    if window["count"] != len(polys):
        problems.append("count disagrees with the polynomial list")
    with mpmath.workdps(DPS):
        for entry in polys:
            coeffs = [int(c) for c in entry["polynomial"]]
            if len(coeffs) != degree + 1 or -coeffs[-2] != window["trace"]:
                problems.append(f"{coeffs} is outside the requested window")
                continue
            root = _largest_real_root(coeffs)
            if root is None:
                problems.append(f"{coeffs} has no real root")
            elif not _mpf(entry["salem_lo"]) <= root <= _mpf(entry["salem_hi"]):
                problems.append(f"enclosure of {coeffs} misses the root {root}")
    return problems


def _spectrum_problems(matrix: list[list[int]], entry: dict) -> list[str]:
    # imported here: sympy takes about half a second and only this check needs it
    import numpy
    import sympy

    x = sympy.Symbol("x")
    charpoly = sympy.Matrix(matrix).charpoly(x)
    expected = [str(c) for c in reversed(charpoly.all_coeffs())]
    problems = []
    if entry["char_poly"] != expected:
        problems.append(f"char_poly {entry['char_poly']} != sympy {expected}")
    # Roots of the squarefree part are simple, so float64 roots are good to
    # about 1e-12 here; the library pads its entropy enclosure by 1.25e-7.
    sqf = sympy.Poly(sympy.sqf_part(charpoly.as_expr()), x)
    roots = numpy.roots([float(c) for c in sqf.all_coeffs()])
    radius = float(max(abs(roots)))
    ent = entry["entropy"]
    if "refused" in ent:
        real = [abs(r) for r in roots if abs(r.imag) < NUMERIC_TOL]
        if not (radius > 1 + NUMERIC_TOL and max(real, default=0.0) < radius - NUMERIC_TOL):
            problems.append("entropy refused although the radius is a real eigenvalue")
    else:
        log_r = math.log(radius)
        if not float(Fraction(ent["lo"])) - NUMERIC_TOL <= log_r <= float(Fraction(ent["hi"])) + NUMERIC_TOL:
            problems.append(f"entropy [{ent['lo']}, {ent['hi']}] misses {log_r}")
    return problems


def isometry_spectra(inp: dict, cert: dict) -> list[str]:
    return (_spectrum_problems(inp["g"], cert["g"])
            + _spectrum_problems(inp["g3"], cert["g3"]))


ORACLES = {
    "k3-certify": k3_certify,
    "k3-scan": k3_scan,
    "salem-enum": salem_enum,
    "isometry-spectra": isometry_spectra,
}
