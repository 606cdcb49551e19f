"""Unipotent coordinates on parabolic lattices and abelian rank computation.

An isometry of a parabolic lattice that fixes the radical generator v and
acts as the identity on L/Zv is determined by the integer vector
(a_1, ..., a_{r-1}) with g(u_i) = u_i + a_i v; the assignment is an
injective group homomorphism into Z^{r-1}, so ranks of such subgroups
reduce to ranks of image vectors, equal over Z and Q as Z^k is torsion-free.
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
    return _coordinates(g, *_completion(lattice))


def _completion(lattice: GramLattice):
    """The basis (v, u_1, ..., u_{r-1}) as columns, and its inverse."""
    if classify(lattice) != LatticeClass.PARABOLIC:
        raise ValueError("lattice is not parabolic")
    basis_t = linalg.transpose(linalg.freeze(lattice._radical_split[1]))
    return basis_t, linalg.unimodular_inverse(basis_t)


def _coordinates(g: LatticeIsometry, basis_t, inverse) -> UnipotentCoordinates:
    """parabolic_coordinates of g, given its lattice's _completion."""
    conj = linalg.mat_mul(inverse, linalg.mat_mul(g.matrix, basis_t))
    r = len(basis_t)
    sign = conj[0][0]
    if sign not in (1, -1) or any(conj[i][0] != 0 for i in range(1, r)):
        raise QuotientActionError("radical generator is not mapped to +-v")
    coords = []
    for j in range(1, r):
        for i in range(1, r):
            if conj[i][j] != (1 if i == j else 0):
                raise QuotientActionError(
                    f"action on the quotient is not the identity at ({i}, {j})")
        coords.append(conj[0][j])
    return UnipotentCoordinates(sign=sign, vector=tuple(coords))


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
    completion = _completion(lattice) if generators else None
    coords = [_coordinates(g, *completion) for g in generators]
    for c in coords:
        if c.sign != 1:
            raise QuotientActionError(
                "generators must fix the radical generator; pass to squares first")
    return abelian_rank_of_image([c.vector for c in coords])
