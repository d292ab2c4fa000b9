"""Exact arbitrary-precision integer matrices and their normal forms.

Row-vector convention throughout the package: a lattice is the span of a
matrix's rows and maps act on the right, so the kernel of A is the set
{x : x.A = 0}.  All arithmetic is over Python ints; nothing here (or
anywhere downstream) touches floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, count

from .errors import InputError


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        ent = tuple(self.entries)
        if len(ent) != self.rows * self.cols:
            raise InputError(
                f"expected {self.rows * self.cols} entries, got {len(ent)}"
            )
        if any(not isinstance(e, int) or isinstance(e, bool) for e in ent):
            raise InputError("matrix entries must be ints")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows_data, cols: int | None = None) -> "IntMatrix":
        rows_data = [list(r) for r in rows_data]
        if rows_data:
            width = len(rows_data[0])
            if cols is not None and cols != width:
                raise InputError("explicit cols disagrees with row length")
            cols = width
        elif cols is None:
            raise InputError("cols is required for a matrix with no rows")
        flat = []
        for r in rows_data:
            if len(r) != cols:
                raise InputError("ragged rows")
            flat.extend(int(e) for e in r)
        return cls(len(rows_data), cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag, rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        diag = [int(d) for d in diag]
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        if rows < n or cols < n:
            raise InputError("diagonal longer than matrix dimensions")
        ent = [0] * (rows * cols)
        for i, d in enumerate(diag):
            ent[i * cols + i] = d
        return cls(rows, cols, tuple(ent))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.shape} x {other.shape}")
        n, m, p = self.rows, self.cols, other.cols
        out = [0] * (n * p)
        oe = other.entries
        for i in range(n):
            base = i * m
            obase = i * p
            for k in range(m):
                a = self.entries[base + k]
                if a == 0:
                    continue
                kb = k * p
                for j in range(p):
                    b = oe[kb + j]
                    if b:
                        out[obase + j] += a * b
        return IntMatrix(n, p, tuple(out))

    __matmul__ = mul

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product, blocks indexed row-major by self's entries."""
        n = self.rows * other.rows
        m = self.cols * other.cols
        out = [0] * (n * m)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entry(i, j)
                if a == 0:
                    continue
                for k in range(other.rows):
                    rbase = (i * other.rows + k) * m + j * other.cols
                    for l in range(other.cols):
                        b = other.entry(k, l)
                        if b:
                            out[rbase + l] = a * b
        return IntMatrix(n, m, tuple(out))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise InputError("vstack needs equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise InputError("shape mismatch in subtraction")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def det(self) -> int:
        """Determinant via the Bareiss fraction-free elimination (exact)."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss update: division by the previous pivot is exact.
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __str__(self):
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        widths = [
            max(len(str(self.entry(i, j))) for i in range(self.rows))
            for j in range(self.cols)
        ]
        lines = []
        for i in range(self.rows):
            cells = (str(self.entry(i, j)).rjust(widths[j]) for j in range(self.cols))
            lines.append("[ " + "  ".join(cells) + " ]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HnfResult:
    """H = transform . A with transform unimodular and H in row Hermite form.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    zero rows sit at the bottom.  H is unique for the row lattice of A;
    the transform is not.
    """

    H: IntMatrix
    transform: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for i in range(self.H.rows) if any(self.H.row(i)))


def _hermite_reduce(h, n: int) -> int:
    """Bring the first n columns of the rows h to row Hermite form, in place.

    Every row operation acts on whole rows, so entries past column n (a
    transform carried alongside) follow the reduction without steering
    it.  Returns the rank.  The rows from the pivot row down are zero left
    of the current column, so each row operation starts at that column.
    """
    m = len(h)
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if h[i][j]]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != r:
                    h[r], h[nz[0]] = h[nz[0]], h[r]
                break
            # Euclid down the column: reduce everything by the smallest entry.
            i0 = min(nz, key=lambda i: (abs(h[i][j]), i))
            p = h[i0]
            for i in nz:
                if i != i0:
                    hi = h[i]
                    q = hi[j] // p[j]
                    hi[j:] = [a - q * b for a, b in zip(hi[j:], p[j:])]
        p = h[r]
        if p[j] == 0:
            continue
        if p[j] < 0:
            p[j:] = [-e for e in p[j:]]
        for i in range(r):
            hi = h[i]
            q = hi[j] // p[j]
            if q:
                hi[j:] = [a - q * b for a, b in zip(hi[j:], p[j:])]
        r += 1
    return r


def hnf(A: IntMatrix) -> HnfResult:
    """Row Hermite normal form with a tracked unimodular transform.

    The reduction runs on the augmented rows [A | I]; their right-hand
    block ends up as the transform.
    """
    m, n = A.rows, A.cols
    h = [list(A.row(i)) + [1 if k == i else 0 for k in range(m)] for i in range(m)]
    _hermite_reduce(h, n)
    return HnfResult(
        IntMatrix.from_rows([row[:n] for row in h], cols=n),
        IntMatrix.from_rows([row[n:] for row in h], cols=m),
    )


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnfDecomposition:
    """U . A . V = D with U, V unimodular and D diagonal.

    The diagonal is nonnegative and each entry divides the next, which
    makes D unique; U and V are deterministic for this implementation but
    not canonical.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> tuple:
        out = []
        for i in range(min(self.D.rows, self.D.cols)):
            d = self.D.entry(i, i)
            if d != 0:
                out.append(d)
        return tuple(out)


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form by classical pivoting.

    The pivot is always a smallest-magnitude nonzero entry of the working
    submatrix (ties broken by position), which makes the output
    deterministic.
    """
    m, n = A.rows, A.cols
    d = A.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def row_sub(i, k, q):
        if q:
            di, dk = d[i], d[k]
            for c in range(n):
                di[c] -= q * dk[c]
            ui, uk = u[i], u[k]
            for c in range(m):
                ui[c] -= q * uk[c]

    def row_add(i, k):
        di, dk = d[i], d[k]
        for c in range(n):
            di[c] += dk[c]
        ui, uk = u[i], u[k]
        for c in range(m):
            ui[c] += uk[c]

    def col_swap(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def col_sub(j, k, q):
        if q:
            for row in d:
                row[j] -= q * row[k]
            for row in v:
                row[j] -= q * row[k]

    def select_pivot(t):
        best = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                e = di[j]
                if e != 0:
                    key = (abs(e), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    while t < m and t < n:
        piv = select_pivot(t)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    row_sub(i, t, d[i][t] // d[t][t])
                    if d[i][t]:
                        # remainder is strictly smaller: promote it
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    col_sub(j, t, d[t][j] // d[t][t])
                    if d[t][j]:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # pivot row and column are clear; enforce divisibility
            wit = None
            pt = d[t][t]
            for i in range(t + 1, m):
                di = d[i]
                for j in range(t + 1, n):
                    if di[j] % pt:
                        wit = i
                        break
                if wit is not None:
                    break
            if wit is None:
                break
            row_add(t, wit)
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            for c in range(n):
                d[i][c] = -d[i][c]
            for c in range(m):
                u[i][c] = -u[i][c]

    return SnfDecomposition(
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(d, cols=n),
        IntMatrix.from_rows(v, cols=n),
    )


# ---------------------------------------------------------------------------
# Kernels, cokernels, and row-lattice helpers
# ---------------------------------------------------------------------------


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Hermite-form basis of {x : x.A = 0}.

    With transform.A = H in echelon form, the transform rows facing zero
    rows of H are a kernel basis; they get one more Hermite pass so the
    result is canonical for the kernel lattice.
    """
    res = hnf(A)
    rank = res.rank
    ker_rows = [list(res.transform.row(i)) for i in range(rank, A.rows)]
    if not ker_rows:
        return IntMatrix.zeros(0, A.rows)
    reduced = hnf(IntMatrix.from_rows(ker_rows, cols=A.rows))
    keep = [list(reduced.H.row(i)) for i in range(reduced.rank)]
    return IntMatrix.from_rows(keep, cols=A.rows)


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix kept as one {column: entry} map per row, zeros omitted."""

    rows: int
    cols: int
    data: tuple


def smith_invariants(sparse_rows):
    """(rank, torsion chain) of the matrix with the given {column: entry} rows.

    Pivots of absolute value 1 are eliminated first, on the shortest row
    and, within it, the unit entry whose column is shortest, so the rows
    stay sparse.  Each such pivot is an invariant factor 1 and takes its
    row and column out.  Rows left with no unit entry form a small dense
    block whose invariant factors come from snf.
    """
    rows = [{j: e for j, e in r.items() if e} for r in sparse_rows]
    where = {}  # column -> indices of the live rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapify(heap)
    stuck = set()  # rows that had no unit entry when last popped
    rank = 0
    while heap:
        length, i = heappop(heap)
        row = rows[i]
        if row is None or length != len(row):
            continue  # stale heap entry
        units = [j for j, e in row.items() if e == 1 or e == -1]
        if not units:
            stuck.add(i)
            continue
        p = min(units, key=lambda j: (len(where[j]), j))
        rank += 1
        rows[i] = None
        for j in row:
            where[j].discard(i)
        sign = row[p]
        for t in list(where[p]):
            other = rows[t]
            q = other[p] * sign  # the pivot is +-1, so this is other[p] / sign
            for j, e in row.items():
                v = other.get(j, 0) - q * e
                if v:
                    if j not in other:
                        where[j].add(t)
                    other[j] = v
                else:
                    del other[j]
                    where[j].discard(t)
            stuck.discard(t)
            if other:
                heappush(heap, (len(other), t))
            else:
                rows[t] = None
    left = sorted(stuck)
    if not left:
        return rank, ()
    used = sorted({j for i in left for j in rows[i]})
    block = IntMatrix.from_rows(
        [[rows[i].get(j, 0) for j in used] for i in left], cols=len(used)
    )
    factors = snf(block).invariant_factors()
    return rank + len(factors), tuple(d for d in factors if d > 1)


def cokernel_invariants(A: IntMatrix):
    """Invariants of Z^cols / rowspan(A): (free_rank, torsion chain)."""
    rank, torsion = smith_invariants(
        {j: e for j, e in enumerate(A.row(i)) if e} for i in range(A.rows)
    )
    return A.cols - rank, torsion


def hermite_rows(vectors, width: int) -> tuple:
    """Canonical Hermite basis rows for the span of the given vectors.

    The same reduction as hnf, with no transform: the basis is unique for
    the lattice, so only the rows are kept.
    """
    rows = []
    for v in vectors:
        row = [int(e) for e in v]
        if len(row) != width:
            raise InputError("ragged rows")
        if any(row):
            rows.append(row)
    rank = _hermite_reduce(rows, width)
    return tuple(tuple(row) for row in rows[:rank])


def hermite_solve(basis_rows, v):
    """Integer coordinates of v in an echelon basis, or None.

    basis_rows must be in row Hermite form (pivot columns strictly
    increasing); the solve is plain back-substitution down the pivots.
    """
    rem = list(v)
    coeffs = []
    for row in basis_rows:
        p = next(compress(count(), row), None)  # index of the first nonzero
        if p is None:
            coeffs.append(0)
            continue
        c, r = divmod(rem[p], row[p])
        if r != 0:
            return None
        coeffs.append(c)
        if c:
            for j in range(p, len(rem)):
                rem[j] -= c * row[j]
    if any(rem):
        return None
    return coeffs


def in_lattice(basis_rows, v) -> bool:
    return hermite_solve(basis_rows, v) is not None


# ---------------------------------------------------------------------------
# File format: {"rows": "2", "cols": "2", "entries": ["1", "0", ...]}
# ---------------------------------------------------------------------------


def matrix_to_json_dict(A: IntMatrix) -> dict:
    return {
        "rows": str(A.rows),
        "cols": str(A.cols),
        "entries": [str(e) for e in A.entries],
    }


def as_int(value, what="integer"):
    """Read a JSON integer: an int or a decimal string, never a boolean."""
    if isinstance(value, bool):
        raise InputError(f"expected {what}, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InputError(f"expected decimal {what}, got {value!r}") from None
    raise InputError(f"expected {what}, got {type(value).__name__}")


def matrix_from_json_dict(obj) -> IntMatrix:
    if not isinstance(obj, dict):
        raise InputError("matrix object must be a mapping")
    missing = {"rows", "cols", "entries"} - set(obj)
    if missing:
        raise InputError(f"matrix object missing fields: {sorted(missing)}")
    rows = as_int(obj["rows"], "row count")
    cols = as_int(obj["cols"], "column count")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise InputError("matrix entries must be a list")
    return IntMatrix(rows, cols, tuple(as_int(e, "entry") for e in entries))


def load_matrix(path) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InputError(f"cannot parse matrix file {path}: {exc}") from None
    return matrix_from_json_dict(obj)
