"""Exact arbitrary-precision integer matrices and their normal forms.

Row-vector convention throughout the package: a lattice is the span of a
matrix's rows and maps act on the right, so the kernel of A is the set
{x : x.A = 0}.  All arithmetic is over Python ints; nothing here (or
anywhere downstream) touches floating point.  IntMatrix and Lattice are
errors.Record classes; the other results are errors.TupleRecords.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from .errors import InputError, Record, TupleRecord, decimal, read_json


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


class IntMatrix(Record):
    """Immutable integer matrix, entries stored row-major.

    The constructor checks the shape and that every entry is an int;
    _trusted=True skips that, for the matrices _matrix builds, which hnf
    and snf derive from a checked one.
    """

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries, *, _trusted=False):
        ent = tuple(entries)
        if not _trusted:
            if rows < 0 or cols < 0:
                raise InputError("matrix dimensions must be nonnegative")
            if len(ent) != rows * cols:
                raise InputError(f"expected {rows * cols} entries, got {len(ent)}")
            if not all(type(e) is int for e in ent):
                raise InputError("matrix entries must be ints")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
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
            flat.extend(r)
        return cls(len(rows_data), cols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag, rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        diag = list(diag)
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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )


# ---------------------------------------------------------------------------
# Hermite normal form (row style)
# ---------------------------------------------------------------------------


class HnfResult(TupleRecord):
    """H = transform . A with transform unimodular and H in row Hermite form.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    zero rows sit at the bottom.  [H | transform] is the row Hermite form
    of [A | I], so both are unique: the transform rows facing zero rows of
    H are the Hermite basis of the left kernel, and the other rows are
    reduced against them.
    """

    __slots__, _fields = (), ("H", "transform")

    @property
    def rank(self) -> int:
        return sum(1 for i in range(self.H.rows) if any(self.H.row(i)))


def _hermite_step(d, carry, n):
    """Row Hermite form of the sparse rows d, the rows carry following.

    d holds maps on the columns [0, n) and carry maps at the columns n..:
    hermite_terms reads the rows {**d_i, **carry_i}, split back at n, so a
    carried transform follows the reduction without steering it.  Empty
    carry rows carry nothing, and the zero rows hermite_terms then drops
    come back at the bottom as empty maps.
    """
    h, t = [], []
    for terms in hermite_terms([{**row, **c} for row, c in zip(d, carry)]):
        k = bisect_left(terms, (n,))  # the first term at a carried column
        h.append(dict(terms[:k]))
        t.append(dict(terms[k:]))
    pad = len(d) - len(h)
    return h + [{} for _ in range(pad)], t + [{} for _ in range(pad)]


def _row_maps(A: IntMatrix) -> list:
    return [{j: e for j, e in enumerate(A.row(i)) if e} for i in range(A.rows)]


def _matrix(maps, cols: int, offset: int = 0) -> IntMatrix:
    """The matrix of the sparse rows maps, read from the column offset on;
    hnf and snf derive the rows from a checked matrix, so it skips checks."""
    entries = [0] * (len(maps) * cols)
    for i, row in enumerate(maps):
        base = i * cols - offset
        for j, e in row.items():
            entries[base + j] = e
    return IntMatrix(len(maps), cols, entries, _trusted=True)


def hnf(A: IntMatrix) -> HnfResult:
    """Row Hermite normal form with its canonical transform: _hermite_step,
    snf's row step, on the rows [A | I], which all come back."""
    m, n = A.rows, A.cols
    h, t = _hermite_step(_row_maps(A), [{n + i: 1} for i in range(m)], n)
    return HnfResult(_matrix(h, n), _matrix(t, m, n))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SnfDecomposition(TupleRecord):
    """U . A . V = D with U, V unimodular and D diagonal.

    The diagonal is nonnegative and each entry divides the next, which
    makes D unique; U and V are deterministic for this implementation but
    not canonical.  What is guaranteed of them: the rows of U (columns of
    V) that face zero rows (columns) of D span the left (right) kernel of
    A and are in Hermite form, and every other row (column) is reduced
    against them.  No bound on the size of their entries is proven yet
    (ROADMAP item 12).
    """

    __slots__, _fields = (), ("U", "D", "V")

    def invariant_factors(self) -> tuple:
        diag = (self.D.entry(i, i) for i in range(min(self.D.rows, self.D.cols)))
        return tuple(d for d in diag if d)


def _transpose(rows, width: int, offset: int = 0) -> list:
    """The width column maps of the sparse rows, whose columns start at offset."""
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, e in row.items():
            cols[j - offset][i] = e
    return cols


def _combine(x, a, y, b) -> dict:
    """x a + y b for the sparse rows a and b, zeros dropped."""
    sums = ((k, x * a.get(k, 0) + y * b.get(k, 0)) for k in a.keys() | b.keys())
    return {k: e for k, e in sums if e}


def _smith(d, n: int, u, vt):
    """Smith diagonal of the m sparse rows d, zeros left out; returns
    (diagonal, u, vt).

    d holds maps on the columns [0, n), u the rows of U at the columns n..
    of the same rows, and vt the columns of V at the columns m.. of d's
    columns; empty transform rows carry nothing.  Row steps carrying u
    alternate with column steps on d's transpose carrying vt until d is
    diagonal, which keeps every entry of d reduced (Kannan and Bachem
    1979): each step turns the leading entry into a divisor of itself,
    and once it stops changing its row and column are clear.  A 2x2 step
    then turns diag(a, b) into diag(g, ab/g) until each entry divides the
    next, and the rows of u (vt) facing zero rows of d, which a step left
    in Hermite form, size-reduce the others.
    """
    m = len(d)
    while True:
        d, u = _hermite_step(d, u, n)
        if all(row.keys() <= {i} for i, row in enumerate(d)):
            break
        dt, vt = _hermite_step(_transpose(d, n), vt, m)
        d = _transpose(dt, m)
        if all(row.keys() <= {i} for i, row in enumerate(d)):
            break
    diag = [row[i] for i, row in enumerate(d) if row]  # Hermite steps leave the nonzeros first
    rank = len(diag)
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
    for t in (u, vt):
        kernel = {min(row): row for row in t[rank:] if row}
        for row in t[:rank]:
            _reduce_at(row, -1, kernel)
    return diag, u, vt


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form with reduced unimodular transforms (see _smith):
    the rows of A go through _smith with the identity carried twice, as
    U at the columns n.. of the rows and as V at the columns m.. of the
    columns."""
    m, n = A.rows, A.cols
    u, vt = [{n + i: 1} for i in range(m)], [{m + j: 1} for j in range(n)]
    diag, u, vt = _smith(_row_maps(A), n, u, vt)
    V = _matrix(_transpose(vt, n, m), n)
    return SnfDecomposition(_matrix(u, m, n), IntMatrix.diagonal(diag, m, n), V)


# ---------------------------------------------------------------------------
# Kernels, cokernels, and row-lattice helpers
# ---------------------------------------------------------------------------


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Hermite-form basis of {x : x.A = 0}: hnf's transform rows facing zero rows of H."""
    res = hnf(A)
    return IntMatrix(A.rows - res.rank, A.rows, res.transform.entries[res.rank * A.rows :])


class SparseMatrix(TupleRecord):
    """Integer matrix kept as one {column: entry} map per row, zeros omitted."""

    __slots__, _fields = (), ("rows", "cols", "data")


def smith_invariants(sparse_rows):
    """(rank, torsion chain) of the matrix with the given {column: entry} rows.

    The rows are copied with their zeros dropped and brought to echelon
    form by _echelon; the rank is the number of pivots.  The rows with
    pivot 1, with the unit vectors off their pivot columns, are a basis
    of Z^width, so the torsion is that of the other echelon rows once
    cleared at the unit pivot columns: those go through _smith, with no
    transform carried, the columns they use renumbered from 0.
    """
    basis = _echelon(
        {j: e for j, e in r.items() if e} if 0 in r.values() else dict(r) for r in sparse_rows if r
    )
    units = {j: row for j, row in basis.items() if row[j] == 1}
    left = [row for j, row in basis.items() if j not in units]
    if not left:
        return len(basis), ()
    for row in left:
        _reduce_at(row, min(row), units)  # a unit pivot row clears its column
    used = {j: k for k, j in enumerate(sorted({j for row in left for j in row}))}
    rows = [{used[j]: e for j, e in row.items()} for row in left]
    diag = _smith(rows, len(used), [{}] * len(rows), [{}] * len(used))[0]
    return len(basis), tuple([d for d in diag if d > 1])


def _echelon(maps) -> dict:
    """Echelon rows of the span of sparse rows, as {pivot column: row}.

    Each row is a {column: entry} map with no zero entries (a zero would
    come back as a zero pivot), and the maps are reduced in place.  The
    elimination is column by column, reducing by the smallest entry with
    the nearest quotient, which at least halves the remainder each round:
    rows wait in a bucket under their leading column, so each row
    operation touches only the nonzeros of the row it subtracts (Dumas,
    Saunders and Villard 2001).  Every pivot is made positive, and the
    rows come back in increasing pivot column.

    A tie for the smallest entry goes to the row with the fewest
    nonzeros (Markowitz 1957), then to the row that reached the bucket
    last.  The rows e_k - a_k e_0, k = 1..r-1, all lead at column 0 and
    arrive in increasing k, and so, nearly, do a walk level's products.
    With the first of them as the pivot, every other row is left leading
    at the pivot's next column, and so on bucket after bucket, r(r-1)/2
    row operations in all; with the last, each is left leading at a
    column of its own, r - 2.  Only a tie looks past the entry, so rows
    whose smallest entry is unique pay nothing for the rule.
    """
    buckets = {}  # leading column -> the rows waiting there
    for row in maps:
        if row:
            buckets.setdefault(min(row), []).append(row)
    columns = list(buckets)
    heapify(columns)
    basis = {}  # pivot column -> pivot row, filled in increasing column
    while columns:
        j = heappop(columns)
        nz = buckets.pop(j)
        while len(nz) > 1:
            # Euclid down the column, by the smallest entry and the nearest quotient.
            size = [abs(row[j]) for row in nz]
            least = min(size)
            if size.count(least) == 1:
                p = nz[size.index(least)]
            else:  # a tie: the fewest nonzeros, then the latest row
                p = min([row for row in reversed(nz) if abs(row[j]) == least], key=len)
            lead, left = p[j], [p]
            for row in nz:
                if row is p:
                    continue
                _subtract(row, (2 * row[j] + lead) // (2 * lead), p.items())
                if j in row:
                    left.append(row)
                elif row:
                    k = min(row)
                    if k not in buckets:
                        buckets[k] = []
                        heappush(columns, k)
                    buckets[k].append(row)
            nz = left
        p = nz[0]
        if p[j] < 0:
            for k in p:
                p[k] = -p[k]
        basis[j] = p
    return basis


def _reduce_at(row: dict, start: int, pivots: dict) -> None:
    """Bring the entries of the sparse row at the columns past start that
    hold a pivot of the echelon rows pivots ({pivot column: row}) into
    [0, pivot), in increasing column: subtracting a pivot row changes
    only columns from its pivot on."""
    todo = [k for k in row if k > start and k in pivots]
    heapify(todo)
    done = start
    while todo:
        j = heappop(todo)
        if j <= done:
            continue  # pushed twice
        done = j
        p = pivots[j]
        q = row.get(j, 0) // p[j]
        if q:
            _subtract(row, q, p.items())
            todo += [k for k in p if k > j and k in pivots]
            heapify(todo)


def hermite_terms(maps) -> tuple:
    """Canonical Hermite basis of the span of sparse rows, as term rows.

    Each row is a {column: entry} map with no zero entries, and the maps
    are reduced in place.  It is the one Hermite reduction with no
    transform carried: _echelon's rows, then the entries above the
    pivots reduced, bottom row first, each row visiting only its own
    pivot-column entries.  Each basis row comes back as its (column,
    entry) terms in increasing column, pivot first, as in Lattice.terms.
    """
    basis = _echelon(maps)
    for j0, row in reversed(basis.items()):
        _reduce_at(row, j0, basis)
    return tuple([tuple(sorted(row.items())) for row in basis.values()])


def echelon_insert(basis: dict, row: dict) -> bool:
    """Put the sparse row, reduced in place, into the lattice of the echelon
    rows basis ({pivot column: {column: entry}}); True when the lattice
    grew, that is when the row was outside it.  Only nonzeros are visited.

    The step is a Euclid step: the row loses the floor quotient of the
    pivot row, and when a remainder is left at the pivot,
    the row (now the smaller) becomes the pivot row and the old pivot row
    carries on in its place."""
    grew = False
    while row:
        p = min(row)
        lead = basis.get(p)
        if lead is None:
            basis[p] = row
            return True
        q = row[p] // lead[p]
        if q:
            _subtract(row, q, lead.items())
        if p in row:
            basis[p], row = row, lead
            grew = True
    return grew


def _subtract(row: dict, q: int, terms) -> None:
    """row -= q t for the (column, entry) terms of t, on the {column: entry}
    map row, dropping the zeros made; q != 0."""
    for k, e in terms:
        v = row.get(k, 0) - q * e
        if v:
            row[k] = v
        else:
            del row[k]


def term_product(terms, rows) -> dict:
    """sum of c rows[a] over the (a, c) terms, each rows[a] a {column:
    entry} map, as a {column: entry} map with no zeros: the term row
    times the matrix with those sparse rows.  rows may be any mapping
    or sequence that holds every a."""
    out = {}
    for a, c in terms:
        _subtract(out, -c, rows[a].items())
    return out


def _sparse_rows(vectors, width: int) -> list:
    """The {column: entry} maps of dense int vectors of the given width."""
    maps = []
    for v in vectors:
        row = tuple(v)
        if len(row) != width:
            raise InputError("ragged rows")
        if not all(type(e) is int for e in row):
            raise InputError("vector entries must be ints")
        maps.append({j: e for j, e in enumerate(row) if e})
    return maps


def _dense(terms, width: int) -> tuple:
    row = [0] * width
    for j, e in terms:
        row[j] = e
    return tuple(row)


def hermite_rows(vectors, width: int) -> tuple:
    """Canonical Hermite basis rows for the span of the given vectors.

    The rows of hermite_terms, as int tuples of the given width.
    """
    return tuple([_dense(row, width) for row in hermite_terms(_sparse_rows(vectors, width))])


class Lattice(Record):
    """The span of rows in row Hermite form, held as term rows.

    terms holds the nonzero (column, entry) pairs of each row in
    increasing column, so the pivot comes first, and width the length of
    the rows; rows gives them as int tuples, and _pivots indexes them by
    pivot column, each built into its slot when first read.  Zero rows
    (the bottom of an hnf) may stay and solve with coefficient 0.  solve
    is plain back-substitution down the pivots.
    """

    _fields = ("terms", "width")
    __slots__ = _fields + ("rows", "_pivots")

    def __init__(self, terms: tuple, width: int):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "width", width)

    @classmethod
    def from_rows(cls, rows, width: int) -> "Lattice":
        return cls(tuple([tuple(row.items()) for row in _sparse_rows(rows, width)]), width)

    @classmethod
    def span(cls, vectors, width: int) -> "Lattice":
        return cls(hermite_terms(_sparse_rows(vectors, width)), width)

    def __getattr__(self, name):
        # Reached only for a slot not yet set: rows and _pivots are filled
        # on first read, and later reads are plain slot reads.
        if name == "rows":
            # Tuples on hot paths are built from lists, not generators: a
            # tuple built from a generator is resized, and CPython frees it
            # onto the free list of its final size, which only a full
            # collection empties, so memory creeps up between collections.
            value = tuple([_dense(row, self.width) for row in self.terms])
        elif name == "_pivots":
            value = {row[0][0]: (i, row) for i, row in enumerate(self.terms) if row}
        else:
            raise AttributeError(f"'Lattice' object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def solve(self, v):
        """Integer coordinates of the int vector v in the rows, or None."""
        if len(v) != self.width:
            raise InputError(f"vector length {len(v)} differs from the lattice width {self.width}")
        if not all(type(e) is int for e in v):
            raise InputError("vector entries must be ints")
        return self.solve_map({j: e for j, e in enumerate(v) if e})

    def solve_map(self, rem: dict):
        """solve for the vector with the nonzero entries {column: entry} of
        rem, which is reduced in place: its leftmost entry must sit at a
        pivot, and is cleared by the row of that pivot."""
        coeffs = [0] * len(self.terms)
        pivots = self._pivots
        while rem:
            hit = pivots.get(min(rem))
            if hit is None:
                return None
            i, row = hit
            col, lead = row[0]
            c, r = divmod(rem[col], lead)
            if r:
                return None
            coeffs[i] = c
            _subtract(rem, c, row)
        return coeffs

    def contains(self, v) -> bool:
        return self.solve(v) is not None


def hermite_solve(basis_rows, v):
    """Integer coordinates of v in rows in row Hermite form, or None."""
    return Lattice.from_rows(basis_rows, len(v)).solve(v)


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
    """Read a JSON integer: an int or canonical decimal text
    (errors.decimal), never a boolean."""
    if isinstance(value, bool):
        raise InputError(f"expected {what}, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return decimal(value)
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
    return IntMatrix(rows, cols, tuple([as_int(e, "entry") for e in entries]))


def load_matrix(path) -> IntMatrix:
    return matrix_from_json_dict(read_json(path, "matrix"))
