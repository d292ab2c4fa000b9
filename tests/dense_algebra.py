"""Dense matrix and ring algebra that only the tests use.

The library works on sparse rows; these dense forms recheck its answers:
IntMatrix products, differences and determinants, the Hermite and Smith
forms by the dense elimination the library ran before its Smith state
became sparse rows, lattice membership on dense rows, a lattice modulo a
sublattice by the dense cokernel, and the dense basis products and unit
vector of a based ring.  Two sparse readers are kept beside them: the
unit-pivot Smith elimination that intmat.smith_invariants ran before it
read the echelon of _echelon, and the boundary check that
joins.check_boundaries ran before it compared sorted column lists.
"""

from collections import defaultdict
from heapq import heapify, heappop, heappush

from equik.abgroups import FgAbelianGroup, cokernel
from equik.errors import EquikError, InputError, LatticeContainmentError
from equik.intmat import IntMatrix, Lattice, SnfDecomposition, xgcd


def mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise InputError(f"shape mismatch {a.rows}x{a.cols} x {b.rows}x{b.cols}")
    n, m, p = a.rows, a.cols, b.cols
    out = [0] * (n * p)
    for i in range(n):
        for k in range(m):
            x = a.entries[i * m + k]
            if x:
                for j in range(p):
                    out[i * p + j] += x * b.entries[k * p + j]
    return IntMatrix(n, p, tuple(out))


def sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise InputError("shape mismatch in subtraction")
    return IntMatrix(a.rows, a.cols, tuple(x - y for x, y in zip(a.entries, b.entries)))


def is_zero(a: IntMatrix) -> bool:
    return not any(a.entries)


def det(a: IntMatrix) -> int:
    """Determinant via the Bareiss fraction-free elimination (exact)."""
    if a.rows != a.cols:
        raise InputError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
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


def dense_hermite_reduce(h, n: int) -> None:
    """Bring the first n columns of the rows h to row Hermite form, in
    place, every row operation acting on whole rows."""
    m, r = len(h), 0
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


def dense_hermite_step(d, carry, n):
    h = [row + c for row, c in zip(d, carry)]
    dense_hermite_reduce(h, n)
    return [row[:n] for row in h], [row[n:] for row in h]


def dense_kernel_reduce(t, rank: int) -> None:
    kernel = t[rank:]
    if not kernel or not kernel[0]:
        return
    dense_hermite_reduce(kernel, len(kernel[0]))
    t[rank:] = kernel
    for row in kernel:
        p = next(j for j, e in enumerate(row) if e)
        for other in t[:rank]:
            q = other[p] // row[p]
            if q:
                other[:] = [a - q * b for a, b in zip(other, row)]


def _is_diagonal(d) -> bool:
    return all(e == 0 for i, row in enumerate(d) for j, e in enumerate(row) if i != j)


def _combine(x, a, y, b) -> list:
    return [x * p + y * q for p, q in zip(a, b)]


def dense_smith(d, n: int, u, vt):
    """Smith diagonal of the n-column dense rows d; returns (diagonal, u, vt).

    intmat._smith as it was on dense lists, its steps the dense ones
    above: row Hermite steps carrying u alternate with column Hermite
    steps carrying vt (the transpose of V) until d is diagonal, a 2x2
    step then turns diag(a, b) into diag(g, ab/g) until each entry
    divides the next, and the kernel rows of u and vt are Hermite-reduced
    and the other rows reduced against them.  Transform rows may be empty
    lists, and then nothing is carried.
    """
    m = len(d)
    while True:
        d, u = dense_hermite_step(d, u, n)
        if _is_diagonal(d):
            break
        dt, vt = dense_hermite_step([list(col) for col in zip(*d)], vt, m)
        d = [list(row) for row in zip(*dt)]
        if _is_diagonal(d):
            break
    diag = [d[i][i] for i in range(min(m, n))]
    rank = sum(1 for e in diag if e)  # Hermite steps leave the nonzeros first
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = diag[i], diag[j]
            if b % a:
                g, x, y = xgcd(a, b)
                a1, b1 = a // g, b // g
                diag[i], diag[j] = g, a1 * b
                ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
                u[i], u[j] = _combine(x, ui, y, uj), _combine(-b1, ui, a1, uj)
                vt[i], vt[j] = _combine(1, vi, 1, vj), _combine(-y * b1, vi, x * a1, vj)
    dense_kernel_reduce(u, rank)
    dense_kernel_reduce(vt, rank)
    return diag, u, vt


def dense_snf(a: IntMatrix) -> SnfDecomposition:
    """snf as it was, on dense_smith."""
    m, n = a.rows, a.cols
    diag, u, vt = dense_smith(
        a.to_rows(), n, IntMatrix.identity(m).to_rows(), IntMatrix.identity(n).to_rows()
    )
    return SnfDecomposition(
        IntMatrix(m, m, [e for row in u for e in row]),
        IntMatrix.diagonal(diag, m, n),
        IntMatrix(n, n, [e for column in zip(*vt) for e in column]),
    )


def invariant_factors(a: IntMatrix) -> tuple:
    """The nonzero diagonal of the Smith form of a, with no transform."""
    diag = dense_smith(a.to_rows(), a.cols, [[]] * a.rows, [[]] * a.cols)[0]
    return tuple(e for e in diag if e)


def heap_smith_invariants(sparse_rows):
    """(rank, torsion chain) of the {column: entry} rows, as the library
    read it before: unit pivots eliminated from a heap of row lengths,
    the shortest row first and, within it, the unit entry whose column
    is shortest; the rows left with no unit entry go to dense_smith as a
    dense block."""
    rows = [{j: e for j, e in r.items() if e} for r in sparse_rows]
    where = defaultdict(set)  # column -> indices of the live rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapify(heap)
    stuck = set()  # rows that had no unit entry when last popped
    units = 0
    while heap:
        length, i = heappop(heap)
        row = rows[i]
        if row is None or length != len(row):
            continue  # stale heap entry
        p = best = None  # the unit entry whose column is shortest, then leftmost
        for j, e in row.items():
            if e == 1 or e == -1:
                n = len(where[j])
                if p is None or n < best or n == best and j < p:
                    p, best = j, n
        if p is None:
            stuck.add(i)
            continue
        units += 1
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
        return units, ()
    used = sorted({j for i in left for j in rows[i]})
    block = [[rows[i].get(j, 0) for j in used] for i in left]
    diag = dense_smith(block, len(used), [[]] * len(left), [[]] * len(used))[0]
    factors = [d for d in diag if d]
    return units + len(factors), tuple([d for d in factors if d > 1])


def summing_check_boundaries(maps) -> None:
    """joins.check_boundaries as it was: each row of maps[d] times maps[d-1]
    summed in a {column: total} map, raising EquikError for the first
    row, of the first map, with a nonzero total."""
    for d in range(1, len(maps)):
        lower = maps[d - 1].data
        for i, row in enumerate(maps[d].data):
            total = {}
            for a, c in row.items():
                for j, e in lower[a].items():
                    total[j] = total.get(j, 0) + c * e
            if any(total.values()):
                raise EquikError(
                    f"boundary of a boundary is not zero: row {i} of map {d}"
                )


def in_lattice(basis_rows, v) -> bool:
    return Lattice.from_rows(basis_rows, len(v)).contains(v)


def dense_quotient(outer: Lattice, inner_rows) -> FgAbelianGroup:
    """outer/inner as lattice_quotient and RingModule.subgroup_class formed
    it before abgroups.quotient: each int row of inner is solved in outer,
    the first row outside raises LatticeContainmentError with that row,
    and the coordinates are read by the dense cokernel."""
    rel = []
    for row in inner_rows:
        sol = outer.solve(row)
        if sol is None:
            raise LatticeContainmentError(row)
        rel.append(sol)
    return cokernel(rel, len(outer.terms))


def basis_mul(ring, i: int, j: int) -> tuple:
    """e_i e_j as an int tuple of the ring's rank."""
    out = [0] * ring.rank
    for k, n in ring.table[i][j]:
        out[k] = n
    return tuple(out)


def one_vec(ring) -> tuple:
    return tuple(int(i == 0) for i in range(ring.rank))
