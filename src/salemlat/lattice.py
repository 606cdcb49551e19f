"""Integer lattices with symmetric bilinear forms.

Signatures, their witness vectors and the short vectors of a definite
form all come from one fraction-free symmetric Bareiss reduction in the
integers; short vectors are enumerated by Fincke-Pohst on its rows with
integer bounds. Sublattice questions take the cheapest exact kernel:
complements and radicals are Bareiss kernels saturated by a small Smith
run, as is saturation; primitivity and the index of a sum read Hermite
normal forms; the discriminant group is the Smith diagonal of the Gram
matrix's HNF. A basis whose rows each have a private column, as echelon
forms do, is independent without a Bareiss rank. What is derived from an
object is kept by it and made once: a lattice keeps its orthogonal
summands and one part per summand, holding that summand's congruence run
and inverse, an embedding its Gram lattice, pairing rows, primitivity and
orthogonal projection. The summands are the connected components of the
graph of nonzero Gram entries (linalg's component walk); signature,
determinant, inverse, radical and short vectors work per summand. A
lattice built as an orthogonal sum holds the parts of its pieces: a
direct_sum, the Gram lattice of an embedding bordered by rows orthogonal
to the embedding it keeps, and the quotient by a radical that is a zero
summand. So the K3 lattices N = 1 + 9 + 9, L = U + 9 + 9 and N's definite
quotient hold the two 9-row parts of Nbar = 9 + 9, and each block is
reduced once. These objects are all that share: no module keeps anything
past one call of a public function. linalg's HNFs, kernels and ranks
split a basis into blocks the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from . import linalg
from .linalg import IntMatrix, IntVector


class IndefiniteLatticeError(ValueError):
    pass


class DegenerateLatticeError(ValueError):
    pass


class RadicalRankError(ValueError):
    pass


class UnsupportedSignatureError(ValueError):
    pass


class _Part:
    """The Gram block of one orthogonal summand, with its congruence run and
    inverse, each made once; every lattice that holds the part reads them."""

    def __init__(self, block: IntMatrix) -> None:
        self.block = block

    @cached_property
    def run(self) -> tuple[tuple, IntVector, IntVector]:
        """One symmetric Bareiss run on the block: its (p_k, prev_k), its pivot
        order and its reduced rows (see _congruence_bareiss), the rows read one
        after another into one tuple; kept as m lists per summand, they made a
        skip-extension run_k3 collect garbage about 40% more often."""
        rows = [list(row) for row in self.block]
        pairs, perm = _congruence_bareiss(rows, len(rows))
        return tuple(pairs), tuple(perm), tuple(x for row in rows for x in row)

    @cached_property
    def inverse(self) -> tuple[IntMatrix, int]:
        """(adj, det) of the block from one Bareiss inverse; ValueError when singular."""
        return linalg.integral_inverse(self.block)


@dataclass(frozen=True)
class GramLattice:
    """Free Z-module of finite rank with an integer symmetric bilinear form."""

    gram: IntMatrix

    def __post_init__(self) -> None:
        g = self.gram
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError(f"gram matrix not symmetric at ({i}, {j})")

    @staticmethod
    def from_rows(rows) -> "GramLattice":
        return GramLattice(linalg.freeze(rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pairing(self, x, y) -> int:
        return sum(xi * sum(g * yj for g, yj in zip(row, y))
                   for xi, row in zip(x, self.gram))

    def norm(self, x) -> int:
        return self.pairing(x, x)

    @cached_property
    def entries(self) -> linalg.SparseRows:
        """The nonzero entries of each row of the Gram matrix, computed once."""
        return linalg._nonzero_entries(self.gram)

    @cached_property
    def summands(self) -> tuple[tuple[int, ...], ...]:
        """The coordinates of each orthogonal summand, computed once.

        The summands are the connected components of the graph on the basis
        whose edges are the nonzero Gram entries, so G is block diagonal on
        them: linalg's components of G + I (whose diagonal joins row i to
        column i), each sorted, in order of their first coordinate.
        """
        diagonal = [((i, 1),) + row for i, row in enumerate(self.entries)]
        return tuple(tuple(cols) for _, cols in linalg._components(diagonal, self.rank)[0])

    @cached_property
    def _parts(self) -> tuple[_Part, ...]:
        """One part per summand, in the order of summands, made once."""
        return tuple(_Part(tuple(tuple(self.gram[i][j] for j in s) for i in s))
                     for s in self.summands)

    @property
    def _congruence(self) -> tuple[tuple[tuple, IntVector, IntVector], ...]:
        """The congruence run of each summand, read off its part."""
        return tuple(part.run for part in self._parts)

    def determinant(self) -> int:
        """det G, the product of each summand's last congruence pivot: 0 when G
        is degenerate, 1 at rank 0."""
        return prod([pairs[-1][0] for pairs, _, _ in self._congruence])

    @cached_property
    def _inverse(self) -> tuple[linalg.SparseRows, int]:
        """(adj G by its nonzero entries, det G) from the inverse of each
        summand's part, made once; ValueError when G is degenerate.

        adj G is block diagonal, and on summand i it is adj(G_i) times the
        determinants of the other summands.
        """
        inverses = [part.inverse for part in self._parts]
        det = prod(d for _, d in inverses)
        rows: list = [()] * self.rank
        for coords, (adj, d) in zip(self.summands, inverses):
            scale = det // d
            for i, row in zip(coords, adj):
                rows[i] = tuple((coords[j], scale * x) for j, x in enumerate(row) if x)
        return tuple(rows), det

    @cached_property
    def _radical_split(self):
        """Completion (v, u_1, ..., u_{r-1}) of the rank-1 radical to a Z-basis,
        made once: the first column c of the Smith transform of the row v has
        v.c = +-1, so Z^r = Zv + ker c, and the u_i are the integer kernel of c
        (for v = e_j, c = e_j and the u_i are the other unit vectors in order)."""
        rad = radical(self)
        if rad.rank != 1:
            raise RadicalRankError(f"radical has rank {rad.rank}, expected 1")
        v = rad.basis[0]
        _, _, vm = linalg.smith_normal_form((v,))
        return v, (v, *linalg.integer_kernel((tuple(row[0] for row in vm),)))

    @cached_property
    def _radical_quotient(self) -> "GramLattice":
        """The form of L / Zv for a rank-1 radical Zv, made once: that induced
        on the section the u_i span, kept without the section, which refers to L.
        For v = e_j, row j of G is zero, so {j} is a summand and the section is
        the other unit vectors: the quotient is G without row and column j, and
        it holds the other summands' parts."""
        v, rows = self._radical_split
        j = next(i for i, x in enumerate(v) if x)
        if v[j] != 1 or any(v[j + 1:]):
            return SublatticeEmbedding(self, rows[1:]).induced_gram()
        gram = tuple((*row[:j], *row[j + 1:]) for i, row in enumerate(self.gram) if i != j)
        return _holding(gram, [(tuple(i - (i > j) for i in coords), part)
                               for coords, part in zip(self.summands, self._parts)
                               if coords != (j,)])

    def __repr__(self) -> str:
        return f"GramLattice(rank={self.rank})"


def hyperbolic_plane() -> GramLattice:
    return GramLattice.from_rows([[0, 1], [1, 0]])


# Bourbaki numbering: chain 1-3-4-5-6-7-8 with node 2 attached to node 4
_E8_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def e8_minus_one() -> GramLattice:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = 1
        g[b - 1][a - 1] = 1
    return GramLattice.from_rows(g)


def diagonal_lattice(entries) -> GramLattice:
    n = len(entries)
    return GramLattice.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _holding(gram: IntMatrix, parts) -> GramLattice:
    """The lattice of gram that holds the given (coordinates, part) pairs as
    its summands: gram must be block diagonal on them, each part's block must
    be gram on its coordinates, and they come in order of first coordinate, as
    summands lists them. They are set as the cached properties would be."""
    lattice = GramLattice(gram)
    lattice.__dict__["summands"] = tuple(coords for coords, _ in parts)
    lattice.__dict__["_parts"] = tuple(part for _, part in parts)
    return lattice


def direct_sum(*lattices: GramLattice) -> GramLattice:
    """The orthogonal sum, which holds the parts of the lattices' summands."""
    total = sum(l.rank for l in lattices)
    rows, parts = [], []
    for lat in lattices:
        offset = len(rows)
        rows += [(0,) * offset + tuple(row) + (0,) * (total - offset - lat.rank)
                 for row in lat.gram]
        parts += [(tuple(i + offset for i in coords), part)
                  for coords, part in zip(lat.summands, lat._parts)]
    return _holding(tuple(rows), parts)


class SignatureTriple(NamedTuple):
    """(n_plus, n_zero, n_minus)."""

    n_plus: int
    n_zero: int
    n_minus: int


class LatticeClass(Enum):
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    OTHER = "other"


def _congruence_bareiss(rows: list[list[int]],
                        n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Diagonalization by congruence of the n x n block of rows, fraction-free.

    Symmetric Bareiss elimination in place (Bareiss, Math. Comp. 22, 1968).
    The pivot is the largest |diagonal entry| of the trailing block, the
    first on ties; on a zero diagonal row and column j are added to i for
    the first nonzero off-diagonal (i, j), which makes (i, i) nonzero. Row
    operations run over whole rows, so augmented columns ride along; swaps
    and adds also act on the first n columns. Every trailing row x becomes
    (p x - f y) / prev, exact by Sylvester's identity, since the swaps and
    adds are unimodular congruences on the trailing coordinates.

    Returns (p_k, prev_k) per position and the pivot order perm. The k-th
    diagonal entry of the congruent diagonal form is p_k / prev_k, and row
    k is prev_k times a rational row b_k with b_i G b_j^T = 0 for i != j
    (G the n x n block). Positions past the last pivot have p_k = 0.
    Row and column k of the n x n block stand for coordinate perm[k];
    without a zero-diagonal add, which a definite form never needs, row k
    from column k on is p_k times row k of the unit upper triangular R
    with P G P^T = R^T D R.
    """
    pairs: list[tuple[int, int]] = []
    perm = list(range(n))
    prev = 1
    for k in range(n):
        piv, best = None, 0
        for i in range(k, n):
            if abs(rows[i][i]) > best:
                piv, best = i, abs(rows[i][i])
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if rows[i][j]), None)
            if off is None:
                break  # trailing block is zero
            piv, j = off
            rows[piv] = [x + y for x, y in zip(rows[piv], rows[j])]
            for row in rows:
                row[piv] += row[j]
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            for row in rows:
                row[k], row[piv] = row[piv], row[k]
        prow = rows[k]
        p = prow[k]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            # with f = 0 the row is only rescaled by p / prev
            if f or p != prev:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pairs.append((p, prev))
        prev = p
    return pairs + [(0, prev)] * (n - len(pairs)), perm


def _signature_of(pairs: list[tuple[int, int]]) -> SignatureTriple:
    plus = sum(1 for p, prev in pairs if p * prev > 0)
    minus = sum(1 for p, prev in pairs if p * prev < 0)
    return SignatureTriple(plus, len(pairs) - plus - minus, minus)


def signature(lattice: GramLattice) -> SignatureTriple:
    return _signature_of([pair for pairs, _, _ in lattice._congruence for pair in pairs])


def _signature_and_witnesses(lattice: GramLattice
                             ) -> tuple[SignatureTriple, dict[int, IntVector]]:
    """The signature and, per sign of norm, its witness, from one run on [G | I].

    The witness of a sign (+1, 0 or -1) is the first basis row of the
    congruence whose diagonal entry has that sign, scaled to a primitive
    integer vector with the sign of the row.
    """
    n = lattice.rank
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(lattice.gram)]
    pairs, _ = _congruence_bareiss(rows, n)
    witnesses: dict[int, IntVector] = {}
    for (p, prev), row in zip(pairs, rows):
        sign = (p * prev > 0) - (p * prev < 0)
        if sign not in witnesses:
            g = gcd(prev, *row[n:]) if prev > 0 else -gcd(prev, *row[n:])
            witnesses[sign] = tuple(x // g for x in row[n:])
    return _signature_of(pairs), witnesses


def definiteness_witness(lattice: GramLattice, wanted_sign: int) -> IntVector | None:
    """An integer vector whose norm has the wanted sign (+1, 0 or -1), if any."""
    return _signature_and_witnesses(lattice)[1].get(wanted_sign)


def classify(lattice: GramLattice) -> LatticeClass:
    return class_of_signature(signature(lattice))


def class_of_signature(sig: SignatureTriple) -> LatticeClass:
    """The trichotomy class of a lattice with signature sig."""
    r = sum(sig)
    if sig == (1, 0, r - 1):
        return LatticeClass.HYPERBOLIC
    if sig == (0, 1, r - 1):
        return LatticeClass.PARABOLIC
    if sig == (0, 0, r):
        return LatticeClass.ELLIPTIC
    return LatticeClass.OTHER


def _has_private_columns(rows: IntMatrix) -> bool:
    """Whether each row is nonzero in a column where every later row is zero,
    as in echelon forms; such rows are independent, since in a vanishing
    combination the first row with a nonzero coefficient is alone there."""
    last = {next((i for i in range(len(col) - 1, -1, -1) if col[i]), None)
            for col in zip(*rows)}
    return last.issuperset(range(len(rows)))


@dataclass(frozen=True)
class SublatticeEmbedding:
    """Sublattice given by basis rows in the coordinates of an ambient lattice."""

    ambient: GramLattice
    basis: IntMatrix
    _kept = None  # the embedding whose basis ends this one's, set by bordered

    def __post_init__(self) -> None:
        if not _has_private_columns(self.basis) and linalg.rational_rank(self.basis) != self.rank:
            raise ValueError("basis rows must be linearly independent over Q")
        for row in self.basis:
            if len(row) != self.ambient.rank:
                raise ValueError("basis row length must match the ambient rank")

    @staticmethod
    def from_rows(ambient: GramLattice, rows) -> "SublatticeEmbedding":
        return SublatticeEmbedding(ambient, linalg.freeze(rows))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def bordered(self, rows) -> "SublatticeEmbedding":
        """The embedding with the given rows followed by this basis, which keeps
        this embedding: it takes its pairing rows, its Gram lattice as a summand
        when the rows pair to zero with it, and its primitivity when the rows
        are unit vectors off its support."""
        emb = SublatticeEmbedding.from_rows(self.ambient, (*rows, *self.basis))
        object.__setattr__(emb, "_kept", self)
        return emb

    @cached_property
    def _rows(self) -> linalg.SparseRows:
        """The basis B by its nonzero entries."""
        return linalg._nonzero_entries(self.basis)

    @cached_property
    def _pairing_rows(self) -> linalg.SparseRows:
        """B G by its nonzero entries, B the basis and G the ambient Gram matrix;
        a bordered embedding takes those of its kept basis from the kept one."""
        kept, g = self._kept, self.ambient
        if kept is None:
            return linalg._sparse_mul(self._rows, g.entries, g.rank)
        return (linalg._sparse_mul(self._rows[:self.rank - kept.rank], g.entries, g.rank)
                + kept._pairing_rows)

    @cached_property
    def _lift(self) -> linalg.SparseRows:
        """B^T by its nonzero entries: coordinates in S to ambient coordinates."""
        return linalg._nonzero_entries(linalg.transpose(self.basis))

    @cached_property
    def _gram(self) -> GramLattice:
        """B G B^T; for a bordered embedding whose k added rows pair to zero with
        the kept basis, the direct sum of their k x k Gram lattice and the kept
        one's, which holds the kept parts."""
        kept = self._kept
        if kept is not None:
            k = self.rank - kept.rank
            top = linalg._sparse_mul(self._pairing_rows[:k], self._lift, self.rank, tuple)
            if not any(x for row in top for x in row[k:]):
                return direct_sum(GramLattice(tuple(row[:k] for row in top)), kept._gram)
        return GramLattice(linalg._sparse_mul(self._pairing_rows, self._lift, self.rank, tuple))

    def induced_gram(self) -> GramLattice:
        """The Gram lattice B G B^T of the sublattice, computed once per embedding."""
        return self._gram

    @cached_property
    def _projection(self) -> linalg.SparseRows:
        """P = adj(G_S) B G by its nonzero entries, G_S = B G B^T.

        P x / det G_S are the coordinates in S of the orthogonal projection
        of x onto S over Q, which vanishes exactly on S^perp; ValueError
        when G_S is degenerate.
        """
        adj, _ = self._gram._inverse
        return linalg._sparse_mul(adj, self._pairing_rows, self.ambient.rank)

    @cached_property
    def _primitive(self) -> bool:
        """Whether the rows span a primitive sublattice, that is whether the
        columns of B span Z^r: the row HNF of B^T is the identity. Rows e_j
        added to a kept basis K that vanishes at each j leave Z^n / (K + sum Z e_j)
        = Z^n / K with the free factors Z e_j taken out, so then the bordered
        embedding is primitive exactly when the kept one is."""
        kept = self._kept
        if kept is not None and all(len(r) == 1 == r[0][1] and not kept._lift[r[0][0]]
                                    for r in self._rows[:self.rank - kept.rank]):
            return kept._primitive
        hnf = linalg.hermite_normal_form(linalg.transpose(self.basis))
        return hnf == linalg.identity(self.rank)

    def spans_same(self, other: "SublatticeEmbedding") -> bool:
        return (linalg.hermite_normal_form(self.basis)
                == linalg.hermite_normal_form(other.basis))


def saturation(emb: SublatticeEmbedding) -> SublatticeEmbedding:
    """Minimal primitive sublattice containing the embedding, as an HNF."""
    rows = linalg.saturate(emb.basis)
    return SublatticeEmbedding(emb.ambient, linalg.hermite_normal_form(rows))


def is_primitive(emb: SublatticeEmbedding) -> bool:
    """Whether the independent rows B span a primitive sublattice, as the
    embedding keeps it."""
    return emb._primitive


def orthogonal_complement(emb: SublatticeEmbedding) -> SublatticeEmbedding:
    """All ambient vectors pairing to zero with the embedding, the integer
    kernel of the pairing rows B G that the embedding keeps; primitive."""
    kernel = linalg._integer_kernel(emb._pairing_rows, emb.ambient.rank)
    return SublatticeEmbedding(emb.ambient, linalg.hermite_normal_form(kernel))


def index_of_sum(a: SublatticeEmbedding, b: SublatticeEmbedding) -> int | None:
    """Index of a + b in the ambient lattice; None when not of full rank."""
    if a.ambient != b.ambient:
        raise ValueError("embeddings must share an ambient lattice")
    n = a.ambient.rank
    hnf = linalg.hermite_normal_form(linalg.row_stack(a.basis, b.basis))
    if len(hnf) < n:
        return None
    return prod(hnf[i][i] for i in range(n))


@dataclass(frozen=True)
class DiscriminantGroup:
    invariant_factors: tuple[int, ...]
    order: int


def discriminant_group(lattice: GramLattice) -> DiscriminantGroup:
    """Invariant factors of coker(gram), the dual quotient L*/L, from the
    Smith diagonal of its HNF; a missing HNF row means a degenerate form."""
    hnf = linalg.hermite_normal_form(lattice.gram)
    if len(hnf) < lattice.rank:
        raise DegenerateLatticeError("discriminant group needs a nondegenerate form")
    diag = linalg.snf_diagonal(hnf)
    return DiscriminantGroup(tuple(d for d in diag if d > 1), prod(diag))


def radical(lattice: GramLattice) -> SublatticeEmbedding:
    """Primitive kernel of the form, as a sublattice of the lattice itself.

    It is the sum of the kernels of the degenerate summands, so only those
    summands need an integer kernel.
    """
    kernel = []
    for coords, part in zip(lattice.summands, lattice._parts):
        if part.run[0][-1][0] == 0:
            kernel += linalg._embed(linalg.integer_kernel(part.block), coords, lattice.rank)
    return SublatticeEmbedding(lattice, linalg.hermite_normal_form(kernel))


def quotient_by_radical(lattice: GramLattice) -> GramLattice:
    """Induced form on L / radical for a parabolic (rank-1 radical) lattice."""
    return lattice._radical_quotient


def vectors_of_norm(lattice: GramLattice, target: int) -> list[IntVector]:
    """All v with v G v^T = target in a definite lattice, one per sign pair.

    Fincke-Pohst enumeration on the congruence run the lattice keeps for
    each summand, whose rows sit side by side in a block triangular form. With
    y_k the product of row k (from column k on) with the coordinates in
    pivot order, v G v^T = sum_k y_k^2 / (p_k prev_k), and every
    p_k prev_k has the sign of the form, so a negative definite form is
    enumerated as its negation on the same rows. Scaled by
    D = lcm |p_k prev_k|, every level's budget is an integer and its bound
    an isqrt. Returned representatives have positive first nonzero
    coordinate and are sorted lexicographically.

    Reference: Fincke, Pohst, Improved methods for calculating vectors of
    short length in a lattice (Math. Comp. 44, 1985).
    """
    n = lattice.rank
    rows: list[IntVector] = []
    perm: list[int] = []  # the coordinate of each pivot position
    dens: list[int] = []
    for coords, (pairs, order, block) in zip(lattice.summands, lattice._congruence):
        first, m = len(perm), len(coords)  # the summand's first pivot position, its rank
        rows += [(0,) * first + block[i * m:i * m + m] + (0,) * (n - first - m) for i in range(m)]
        perm += [coords[i] for i in order]
        dens += [p * prev for p, prev in pairs]
    if all(d > 0 for d in dens):
        c = target
    elif all(d < 0 for d in dens):
        c = -target
    else:
        raise IndefiniteLatticeError(
            "short-vector enumeration needs a definite lattice")
    if c <= 0 or n == 0:
        return []
    scale = lcm(*dens)
    weights = [scale // abs(d) for d in dens]
    results: list[IntVector] = []
    x = [0] * n  # coordinates in pivot order

    def descend(k: int, budget: int):
        # budget = D c minus weights[j] y_j^2 for every level j > k
        if k < 0:
            if budget == 0:
                vec = [0] * n
                for i, xi in zip(perm, x):
                    vec[i] = xi
                if next(v for v in vec if v) > 0:
                    results.append(tuple(vec))
            return
        row = rows[k]
        s = sum(row[j] * x[j] for j in range(k + 1, n))
        a = abs(row[k])
        sign = 1 if row[k] > 0 else -1
        # y_k = a u + s with u = sign x_k, and weights[k] y_k^2 <= budget
        r = isqrt(budget // weights[k])
        for u in range(-((r + s) // a), (r - s) // a + 1):
            y = a * u + s
            x[k] = sign * u
            descend(k - 1, budget - weights[k] * y * y)
        x[k] = 0

    descend(n - 1, scale * c)
    results.sort()
    return results


def represents(lattice: GramLattice, target: int):
    """(bool, witness) for definite or parabolic lattices.

    A parabolic form is constant on cosets of its radical, so the question
    reduces to the definite quotient; a witness is lifted back through the
    chosen splitting. The signature is that of the lattice's one congruence run.
    """
    sig = signature(lattice)
    cls = class_of_signature(sig)
    if cls == LatticeClass.ELLIPTIC or sig == (lattice.rank, 0, 0):
        vecs = vectors_of_norm(lattice, target)
        return (True, vecs[0]) if vecs else (False, None)
    if cls == LatticeClass.PARABOLIC:
        v, rows = lattice._radical_split
        if target == 0:
            return True, v
        vecs = vectors_of_norm(lattice._radical_quotient, target)
        if not vecs:
            return False, None
        return True, linalg.mat_vec(linalg.transpose(rows[1:]), vecs[0])
    raise UnsupportedSignatureError(
        f"represents() supports definite or parabolic lattices, not {cls.value}")
