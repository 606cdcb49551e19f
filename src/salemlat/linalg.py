"""Exact linear algebra over the integers and rationals.

Matrices are tuples of tuples (rows). Every product comes from one
zero-skipping kernel, which multiplies only pairs of nonzero entries and
returns the nonzero entries of each row, so a product of sparse factors
stays sparse, or dense rows for mat_mul.
Determinant, adjugate, inverses, solve, rank and the rational kernel all
come from one Bareiss fraction-free elimination core, which never leaves
the integers; fractions.Fraction appears only in the outputs of the
fraction_* fronts. Hermite normal forms answer span questions. Smith
normal forms come from one core, which records both transforms or
neither, as its callers need; saturating k independent rows (and so the
integer kernel) costs one Smith run that records only a k x k transform.
Hermite normal form, integer kernel and rational rank eliminate a matrix
block by block, on the components of its support graph.
Nothing here is tolerant of floating point, by design.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter, mul
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(map(int, row)) for row in rows)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


_entry = itemgetter(1)


def _nonzero_row(row) -> tuple[tuple[int, int], ...]:
    """The (column, entry) pairs of the nonzero entries of one row."""
    return tuple(filter(_entry, enumerate(row)))


def _nonzero_entries(a) -> SparseRows:
    """Each row of a as the (column, entry) pairs of its nonzero entries."""
    return tuple(map(_nonzero_row, a))


def _sparse_transpose(a: SparseRows, ncols: int) -> SparseRows:
    """The transpose of the ncols-column matrix a, by nonzero entries."""
    out = [[] for _ in range(ncols)]
    for i, row in enumerate(a):
        for j, x in row:
            out[j].append((i, x))
    return tuple(map(tuple, out))


def _components(a: SparseRows, ncols: int) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """The connected components of the bipartite graph of a's nonzero entries
    (rows on one side, columns on the other) as sorted (rows, columns) in
    order of their first row, and the untouched columns; zero rows lie in
    none. Permuted by components, a is block diagonal: the coarsest block
    triangular form (Pothen, Fan, ACM TOMS 16, 1990)."""
    by_col = _sparse_transpose(a, ncols)
    row_seen, col_seen = [False] * len(a), [False] * ncols
    out = []
    for start, entries in enumerate(a):
        if entries and not row_seen[start]:
            row_seen[start] = True
            rows, cols = [start], []
            for i in rows:  # a breadth-first walk; rows grows as it is read
                for j, _ in a[i]:
                    if not col_seen[j]:
                        col_seen[j] = True
                        cols.append(j)
                        for r, _ in by_col[j]:
                            if not row_seen[r]:
                                row_seen[r] = True
                                rows.append(r)
            out.append((sorted(rows), sorted(cols)))
    return out, [j for j, col in enumerate(by_col) if not col]


def _blocks(a: SparseRows, ncols: int) -> tuple[list[tuple[list[list[int]], list[int]]], list[int]]:
    """The dense (submatrix, columns) of each component of a; its untouched columns."""
    comps, untouched = _components(a, ncols)
    return [([[d.get(j, 0) for j in cols] for d in map(dict, map(a.__getitem__, rows))], cols)
            for rows, cols in comps], untouched


def _embed(rows, cols: list[int], ncols: int):
    """Rows over the given columns, widened to ncols columns."""
    for row in rows:
        full = [0] * ncols
        for j, x in zip(cols, row):
            full[j] = x
        yield tuple(full)


def _sparse_mul(a: SparseRows, b: SparseRows, ncols: int, shape=_nonzero_row):
    """The product a b, each row given by shape of its ncols accumulated
    entries: by default its nonzero entries, columns ascending, so a product
    of sparse factors stays sparse; shape = tuple gives dense rows.

    Only pairs of nonzero entries are multiplied, and a row of a that meets
    only empty rows of b costs no accumulator.
    """
    out = []
    zero = None
    for row in a:
        acc = None
        for k, x in row:
            brow = b[k]
            if brow:
                if acc is None:
                    acc = [0] * ncols
                for j, y in brow:
                    acc[j] += x * y
        if acc is not None:
            out.append(shape(acc))
        else:
            if zero is None:
                zero = shape([0] * ncols)
            out.append(zero)
    return tuple(out)


def mat_mul(a, b):
    """The dense product a b by the zero-skipping kernel."""
    return _sparse_mul(_nonzero_entries(a), _nonzero_entries(b), len(b[0]) if b else 0, tuple)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, k):
    return tuple(tuple(k * x for x in row) for row in a)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """a**k by binary powering; k < 0 uses the exact unimodular inverse.

    The product starts at the lowest set bit of k and the base is not
    squared past the highest, so a**1 costs no multiplication.
    """
    if k == 0:
        return identity(len(a))
    if k < 0:
        a = unimodular_inverse(a)
        k = -k
    result = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mat_mul(base, base)


def det_bareiss(a: IntMatrix) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    n = len(a)
    pivots, d, sign = _bareiss([list(row) for row in a], n)
    return sign * d if len(pivots) == n else 0


def charpoly_coeffs(a: IntMatrix) -> list[int]:
    """Coefficients of det(tI - a), ascending degree, by Faddeev-LeVerrier.

    All intermediate matrices are integral; the trace divisions are exact.
    """
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = a
    c = -sum(m[i][i] for i in range(n))
    if n >= 1:
        coeffs[n - 1] = c
    for k in range(2, n + 1):
        m = mat_mul(a, mat_add(m, mat_scale(identity(n), c)))
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace is not divisible by k")
        c = -tr // k
        coeffs[n - k] = c
    return coeffs


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], int, int]:
    """Bareiss fraction-free Gauss-Jordan elimination of integer rows in place.

    Pivots are searched only in the first ncols columns, so augmented
    columns ride along. Every other row x becomes (p x - f y) / prev, an
    exact division (Bareiss, Math. Comp. 22, 1968). Returns the (row, col)
    pivots, the last pivot d and the sign of the row swaps: every pivot
    entry ends equal to d, the reduced row echelon form is rows / d, and a
    square nonsingular input has det = sign * d.
    """
    m = len(rows)
    pivots: list[tuple[int, int]] = []
    prev = sign = 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, m) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        prow = rows[k]
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            # with f = 0 the row is only rescaled by p / prev
            if r != k and (f or p != prev):
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append((k, col))
        prev = p
    return pivots, prev, sign


def integral_inverse(a: IntMatrix) -> tuple[IntMatrix, int]:
    """(adj a, det a) from one elimination of [a | I]; ValueError if singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, d, sign = _bareiss(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(sign * x for x in row[n:]) for row in aug), sign * d


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix with determinant +-1."""
    adj, det = integral_inverse(a)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return mat_scale(adj, det)


def fraction_inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    adj, det = integral_inverse(a)
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def fraction_solve(a, b) -> list[Fraction] | None:
    """Solve a x = b exactly for any m x n matrix a; None when inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots, d, _ = _bareiss(aug, n)
    if any(aug[r][n] for r in range(len(pivots), m)):
        return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = Fraction(aug[r][n], d)
    return x


def rational_rank(a) -> int:
    """Rank over Q, summed over the blocks of a; rows lose their content first."""
    rank = 0
    for rows, cols in _blocks(_nonzero_entries(a), len(a[0]) if a else 0)[0]:
        rows = [[x // c for x in row] if (c := gcd(*row)) > 1 else row for row in rows]
        rank += len(_bareiss(rows, len(cols))[0])
    return rank


def adjugate(a: IntMatrix) -> IntMatrix:
    """Adjugate matrix: det(a) * a^{-1}, always integral; a must be nonsingular."""
    return integral_inverse(a)[0]


def _centered_quotient(a: int, b: int) -> int:
    """q with |a - q b| <= |b| / 2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (u, d, v) with u*a*v = d, u, v unimodular, d diagonal.

    Diagonal entries are non-negative and form a divisibility chain
    d1 | d2 | ... The core runs on [a | I; I | 0], so its row operations
    record u in the right-hand columns and its column operations record v
    in the bottom rows.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    rows += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    _smith(rows, m, n)
    return (freeze(row[n:] for row in rows[:m]),
            freeze(row[:n] for row in rows[:m]),
            freeze(row[:n] for row in rows[m:]))


def snf_diagonal(a: IntMatrix) -> list[int]:
    """The Smith normal form diagonal of a; no transforms are recorded."""
    rows = [list(row) for row in a]
    n = len(rows[0]) if rows else 0
    _smith(rows, len(rows), n)
    return [rows[i][i] for i in range(min(len(rows), n))]


def _smith(d: list[list[int]], m: int, n: int) -> None:
    """Reduce the leading m x n block of d to Smith normal form in place.

    Row operations act on the first m rows and column operations on the
    first n columns, each over its whole length, so blocks appended to
    the right or below ride along. At every round the globally smallest
    nonzero entry of the trailing block becomes the pivot and reductions
    use centered quotients, which keeps intermediate entries under control.
    """

    def add_row(dst, src, q):
        # row_dst += q * row_src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]

    def move_min_pivot(t) -> bool:
        # the first least nonzero |entry| of the trailing block, row by row
        piv = min(((abs(x), i, j) for i in range(t, m)
                   for j, x in enumerate(d[i][t:n], t) if x), default=None)
        if piv is None:
            return False
        _, i, j = piv
        d[t], d[i] = d[i], d[t]
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
        return True

    t = 0
    while t < min(m, n):
        if not move_min_pivot(t):
            break
        while True:
            # reduce the pivot column, then the pivot row
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    add_row(i, t, -_centered_quotient(d[i][t], d[t][t]))
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    add_col(j, t, -_centered_quotient(d[t][j], d[t][t]))
            if any(d[i][t] for i in range(t + 1, m)) or \
               any(d[t][j] for j in range(t + 1, n)):
                # a remainder survived; it is at most half the pivot
                move_min_pivot(t)
                continue
            # enforce divisibility of the remaining block by the pivot;
            # a unit pivot divides every entry
            if abs(d[t][t]) == 1:
                break
            offender = next((i for i in range(t + 1, m)
                             if any(d[i][j] % d[t][t] for j in range(t + 1, n))), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1


def saturate(rows: IntMatrix) -> IntMatrix:
    """A Z-basis of the integer vectors in the rational span of independent rows.

    With U K V = D a Smith form of the k rows K, the rows of D^-1 U K are
    the first rows of the unimodular V^-1, so primitive and of the same
    span. The core runs on [K | I] and records only the k x k transform U.
    Rows lose their content first, which is all a single row needs.
    """
    rows = tuple(tuple(x // c for x in row) for row in rows for c in (gcd(*row),))
    if len(rows) <= 1:
        return rows
    k, n = len(rows), len(rows[0])
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    _smith(aug, k, n)
    uk = mat_mul([row[n:] for row in aug], rows)
    return tuple(tuple(x // aug[i][i] for x in row) for i, row in enumerate(uk))


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Basis (rows) of {x : a x = 0} over the integers. Always saturated.

    It is the unit vectors of the untouched columns of a and the kernels of
    its blocks, each saturated on its own. With d the last pivot of one
    Bareiss pass on a block, the vector of a free column j has d at j and
    -rows[r][j] at the pivot column of each pivot row r; saturate() makes
    them a Z-basis."""
    return _integer_kernel(_nonzero_entries(a), len(a[0]) if a else 0)


def _integer_kernel(a: SparseRows, n: int) -> IntMatrix:
    """integer_kernel of the n-column matrix a, given by its nonzero entries."""
    blocks, untouched = _blocks(a, n)
    kernel = [tuple(int(i == j) for i in range(n)) for j in untouched]
    for rows, cols in blocks:
        pivots, d, _ = _bareiss(rows, len(cols))
        free = sorted(set(range(len(cols))).difference(c for _, c in pivots))
        vecs = [[0] * len(cols) for _ in free]
        for vec, j in zip(vecs, free):
            vec[j] = d
            for r, c in pivots:
                vec[c] = -rows[r][j]
        kernel += _embed(saturate(vecs), cols, n)
    return tuple(kernel)


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above a pivot are reduced to [0, pivot).
    The result is a canonical basis of the row space, so two integer
    matrices span the same sublattice iff their HNFs are equal. It is the
    blocks' HNF rows by pivot column (the larger echelon row first), as the
    blocks' columns are disjoint. An input in Hermite form is returned as
    it is, and a block of one row, the row with a positive pivot: neither
    is eliminated.
    """
    if _in_hermite_form(a):
        return freeze(a)
    comps, _ = _components(_nonzero_entries(a), len(a[0]) if a else 0)
    hnf = [row for rows, cols in comps
           for row in ((_positive(a[rows[0]]),) if len(rows) == 1
                       else _hermite([list(a[i]) for i in rows], cols))]
    return tuple(sorted(hnf, reverse=True))


def _positive(row) -> IntVector:
    """A nonzero row with its first nonzero entry made positive: its HNF."""
    return tuple(-x for x in row) if next(x for x in row if x) < 0 else tuple(row)


def _in_hermite_form(a) -> bool:
    """Whether a is its own HNF: every row is nonzero, with a positive first
    nonzero entry in a column right of the previous row's, above which every
    entry lies in [0, it)."""
    last = -1
    for i, row in enumerate(a):
        j = next((j for j, x in enumerate(row) if x), -1)
        if j <= last or row[j] < 0 or any(not 0 <= above[j] < row[j] for above in a[:i]):
            return False
        last = j
    return True


def _hermite(rows: list[list[int]], cols: list[int]) -> IntMatrix:
    """The HNF of rows that vanish off the sorted columns cols, reduced there in place."""
    pivot_rows: list[list[int]] = []
    for col in cols:
        sel = [r for r in rows if r[col] != 0]
        if not sel:
            continue
        while True:
            sel.sort(key=lambda r: abs(r[col]))
            piv = sel[0]
            done = True
            for r in sel[1:]:
                q = r[col] // piv[col]
                for j in cols:
                    r[j] -= q * piv[j]
                if r[col] != 0:
                    done = False
            sel = [piv] + [r for r in sel[1:] if r[col] != 0]
            if done or len(sel) == 1:
                break
        if piv[col] < 0:
            for j in cols:
                piv[j] = -piv[j]
        for r in pivot_rows:
            q = r[col] // piv[col]
            if q:
                for j in cols:
                    r[j] -= q * piv[j]
        pivot_rows.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
    return freeze(pivot_rows)


def row_stack(*mats: IntMatrix) -> IntMatrix:
    rows: list[tuple[int, ...]] = []
    for m in mats:
        rows.extend(m)
    return tuple(rows)
