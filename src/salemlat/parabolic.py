"""Unipotent coordinates on parabolic lattices and abelian rank computation.

An isometry of a parabolic lattice that fixes the radical generator v and
acts as the identity on L/Zv is determined by the integer vector
(a_1, ..., a_{r-1}) with g(u_i) = u_i + a_i v; the assignment is an
injective group homomorphism into Z^{r-1}, so ranks of such subgroups
reduce to ranks of image vectors, equal over Z and Q as Z^k is torsion-free.
Each a_i is read off g(u_i) - u_i along the completion (v, u_1, ...) that the
lattice keeps, with no basis inverse; k3 reads its generators on N with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .isometry import LatticeIsometry
from .lattice import GramLattice, LatticeClass, classify
from .linalg import IntVector


class QuotientActionError(ValueError):
    """The isometry does not act as the identity on L / (radical)."""


@dataclass(frozen=True)
class UnipotentCoordinates:
    sign: int  # action on the radical generator: v -> sign * v
    vector: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


def parabolic_coordinates(g: LatticeIsometry, lattice: GramLattice) -> UnipotentCoordinates:
    """Coordinates of g in the fixed basis (v, u_1, ..., u_{r-1}).

    Requires a parabolic lattice, g(v) = +-v, and a trivial induced action
    on the quotient by the radical.
    """
    if g.lattice != lattice:
        raise ValueError("isometry does not act on the given lattice")
    return _coordinates(g, lattice)


def _radical_coefficients(moved, v) -> tuple[int, ...]:
    """The a with g(x) - x = a v for each displacement row g(x) - x of the rows
    (v, u_1, ...), all by nonzero entries, up to the first that is not a
    multiple of v, whose index is the length of the result."""
    out = []
    for d in moved:
        a = d[0][1] // v[0][1] if d else 0
        if d and d != tuple((j, a * x) for j, x in v):
            break
        out.append(a)
    return tuple(out)


def _coordinates(g: LatticeIsometry, lattice: GramLattice) -> UnipotentCoordinates:
    """parabolic_coordinates of g, read along the completion (v, u_1, ...) of
    the radical that the lattice keeps: g(v) - v = a_0 v with sign 1 + a_0 =
    +-1, and g(u_i) - u_i = a_i v, all from one product with (M - I)^T."""
    if classify(lattice) != LatticeClass.PARABOLIC:
        raise ValueError("lattice is not parabolic")
    rows = linalg._nonzero_entries(lattice._radical_split[1])
    coeffs = _radical_coefficients(linalg._sparse_mul(rows, g._moved_t, g.rank), rows[0])
    if not coeffs or coeffs[0] not in (0, -2):
        raise QuotientActionError("radical generator is not mapped to +-v")
    if len(coeffs) < len(rows):
        raise QuotientActionError(
            f"action on the quotient is not the identity at u_{len(coeffs)}")
    return UnipotentCoordinates(sign=1 + coeffs[0], vector=coeffs[1:])


def abelian_rank_of_image(vectors: list[IntVector]) -> int:
    """Rank of the subgroup of Z^k generated by the vectors."""
    if not vectors:
        return 0
    k = len(vectors[0])
    for v in vectors:
        if len(v) != k:
            raise ValueError("vectors must share a common length")
    return linalg.rational_rank(linalg.freeze(vectors))


def parabolic_group_rank(generators: list[LatticeIsometry],
                         lattice: GramLattice) -> int:
    """Rank of the coordinate image; always at most rank(lattice) - 1."""
    if any(g.lattice != lattice for g in generators):
        raise ValueError("isometry does not act on the given lattice")
    coords = [_coordinates(g, lattice) for g in generators]
    for c in coords:
        if c.sign != 1:
            raise QuotientActionError(
                "generators must fix the radical generator; pass to squares first")
    return abelian_rank_of_image([c.vector for c in coords])
