"""Normal form tests: frozen examples plus property checks.

The independent oracle for Smith invariant factors is the minor-gcd
formula: the k-th determinantal divisor d_k is the gcd of all k x k
minors, and the k-th invariant factor is d_k / d_(k-1).
"""

from itertools import combinations, compress, count
from math import gcd, log2
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equik.intmat as intmat
from equik.abgroups import FgAbelianGroup, cokernel
from equik.errors import InputError
from equik.intmat import (
    HnfResult,
    IntMatrix,
    Lattice,
    echelon_insert,
    hermite_rows,
    hermite_solve,
    hermite_terms,
    hnf,
    kernel_basis,
    matrix_from_json_dict,
    matrix_to_json_dict,
    smith_invariants,
    snf,
    term_product,
    xgcd,
)
from dense_algebra import det, heap_smith_invariants, in_lattice, invariant_factors, is_zero, mul


@st.composite
def matrices(draw, max_dim=4, max_entry=9):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.integers(-max_entry, max_entry), min_size=m * n, max_size=m * n
        )
    )
    return IntMatrix(m, n, tuple(entries))


def minor_gcd_invariants(a: IntMatrix) -> tuple:
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rs in combinations(range(a.rows), k):
            for cs in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows(
                    [tuple(a.entry(i, j) for j in cs) for i in rs], cols=k
                )
                g = gcd(g, abs(det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_xgcd_bezout():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


def test_snf_frozen_example():
    a = IntMatrix.from_rows([(2, 4), (6, 8)], cols=2)
    dec = snf(a)
    assert dec.invariant_factors() == (2, 4)
    assert mul(mul(dec.U, a), dec.V).entries == dec.D.entries


def test_hnf_frozen_examples():
    a = IntMatrix.from_rows([(2, 4), (0, 3)], cols=2)
    assert hnf(a).H.to_rows() == [[2, 1], [0, 3]]
    b = IntMatrix.from_rows([(0, 0), (5, 0)], cols=2)
    assert hnf(b).H.to_rows() == [[5, 0], [0, 0]]


def test_cokernel_frozen_example():
    rows = [(1, 0, 0, 0), (0, 4, 0, 0), (0, 0, 6, 0)]
    assert cokernel(rows, 4) == FgAbelianGroup(1, (2, 12))


def test_kernel_frozen_example():
    a = IntMatrix.from_rows([(1, 2), (2, 4)], cols=2)
    k = kernel_basis(a)
    assert k.rows == 1
    assert is_zero(mul(k, a))


def test_det_bareiss_matches_small_cases():
    a = IntMatrix.from_rows([(3,)], cols=1)
    assert det(a) == 3
    b = IntMatrix.from_rows([(1, 2), (3, 4)], cols=2)
    assert det(b) == -2
    c = IntMatrix.from_rows([(2, 0, 1), (1, 1, 0), (0, 3, 1)], cols=3)
    assert det(c) == 2 * 1 + 1 * 3 - 0  # cofactor expansion by hand


def test_det_rejects_nonsquare():
    with pytest.raises(InputError):
        det(IntMatrix.zeros(2, 3))


@given(matrices())
@settings(max_examples=150)
def test_snf_decomposition_properties(a):
    dec = snf(a)
    assert mul(mul(dec.U, a), dec.V).entries == dec.D.entries
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    factors = dec.invariant_factors()
    assert all(d > 0 for d in factors)
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D.entry(i, j) == 0


@given(matrices())
@settings(max_examples=80)
def test_snf_matches_minor_gcd_oracle(a):
    assert snf(a).invariant_factors() == minor_gcd_invariants(a)


@given(matrices())
@settings(max_examples=120)
def test_hnf_shape_and_transform(a):
    res = hnf(a)
    assert mul(res.transform, a).entries == res.H.entries
    assert abs(det(res.transform)) == 1
    pivots = []
    for i in range(res.H.rows):
        row = res.H.row(i)
        nz = [j for j, e in enumerate(row) if e]
        if not nz:
            # all remaining rows must be zero too
            for k in range(i, res.H.rows):
                assert not any(res.H.row(k))
            break
        lead = nz[0]
        assert row[lead] > 0
        if pivots:
            assert lead > pivots[-1]
        for above in range(i):
            assert 0 <= res.H.entry(above, lead) < row[lead]
        pivots.append(lead)


@given(matrices(max_dim=3), st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
    max_size=5,
))
@settings(max_examples=80)
def test_hnf_invariant_under_row_operations(a, ops):
    m = IntMatrix.identity(a.rows)
    for i, j, c in ops:
        if i >= a.rows or j >= a.rows or i == j:
            continue
        elem = IntMatrix.identity(a.rows).to_rows()
        elem[i][j] = c
        m = mul(IntMatrix.from_rows(elem, cols=a.rows), m)
    assert hnf(mul(m, a)).H.entries == hnf(a).H.entries


@given(matrices())
@settings(max_examples=100)
def test_kernel_is_saturated_and_complete(a):
    ker = kernel_basis(a)
    assert ker.cols == a.rows
    assert is_zero(mul(ker, a))
    assert ker.rows == a.rows - hnf(a).rank
    if ker.rows:
        # the kernel of an integer matrix is a pure sublattice, so its
        # basis matrix has all invariant factors equal to 1
        assert snf(ker).invariant_factors() == (1,) * ker.rows


@given(matrices())
@settings(max_examples=60)
def test_cokernel_matches_snf_diagonal(a):
    group = cokernel(a.to_rows(), a.cols)
    diag = snf(a).invariant_factors()
    assert group.free_rank == a.cols - len(diag)
    assert group.torsion == tuple(d for d in diag if d > 1)


@given(matrices(max_dim=3))
@settings(max_examples=60)
def test_hermite_solve_roundtrip(a):
    rows = [a.row(i) for i in range(a.rows)]
    basis = hermite_rows(rows, a.cols)
    for r in rows:
        combo = hermite_solve(list(basis), r)
        assert combo is not None
        rebuilt = [0] * a.cols
        for c, b in zip(combo, basis):
            for j in range(a.cols):
                rebuilt[j] += c * b[j]
        assert tuple(rebuilt) == r
        assert in_lattice(list(basis), r)


def test_hermite_solve_outside_lattice():
    basis = hermite_rows([(2, 0), (0, 2)], 2)
    assert hermite_solve(list(basis), (1, 0)) is None
    assert not in_lattice(list(basis), (1, 1))


def pivot_search_solve(basis_rows, v):
    """hermite_solve as it was before Lattice: each call finds every pivot again."""
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


@given(
    a=matrices(max_dim=5),
    zero=st.booleans(),
    zero_rows=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=150)
def test_lattice_solve_matches_pivot_search(a, zero, zero_rows, data):
    # Zero rows stand for the bottom of an hnf, which hermite_solve accepts.
    basis = () if zero else hermite_rows([a.row(i) for i in range(a.rows)], a.cols)
    rows = basis + ((0,) * a.cols,) * zero_rows
    lat = Lattice.from_rows(rows, a.cols)
    ints = st.integers(-6, 6)
    coeffs = data.draw(st.lists(ints, min_size=len(rows), max_size=len(rows)))
    inside = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(a.cols))
    anywhere = tuple(data.draw(st.lists(ints, min_size=a.cols, max_size=a.cols)))
    for v in (inside, anywhere):
        want = pivot_search_solve(rows, v)
        assert lat.solve(v) == want == hermite_solve(rows, v)
        assert lat.contains(v) == (want is not None)
    assert lat.solve(inside) == coeffs[: len(basis)] + [0] * zero_rows


def test_matrix_json_roundtrip():
    a = IntMatrix.from_rows([(1, -2), (0, 7)], cols=2)
    d = matrix_to_json_dict(a)
    assert d["entries"] == ["1", "-2", "0", "7"]
    assert matrix_from_json_dict(d) == a


def test_matrix_json_rejects_bad_shapes():
    with pytest.raises(InputError):
        matrix_from_json_dict({"rows": "2", "cols": "2"})
    with pytest.raises(InputError):
        matrix_from_json_dict({"rows": "1", "cols": "1", "entries": ["x"]})
    with pytest.raises(InputError):
        matrix_from_json_dict({"rows": "2", "cols": "1", "entries": ["1"]})


def test_matrix_shape_validation():
    with pytest.raises(InputError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(InputError):
        IntMatrix(-1, 2, ())


ENTRY_POOLS = (
    st.integers(-9, 9),
    st.sampled_from([0, 2, -2, 3, -3, 4, 6, -6, 9]),  # no unit entries
    st.sampled_from([0, 0, 1, -1, 1, -1, 2]),  # mostly units
)


@st.composite
def pooled_matrices(draw, max_dim=7, max_cols=None):
    """Matrices of any shape, empty ones included, with some rows zeroed."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim if max_cols is None else max_cols))
    pool = draw(st.sampled_from(ENTRY_POOLS))
    rows = [draw(st.lists(pool, min_size=n, max_size=n)) for _ in range(m)]
    zeroed = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return IntMatrix.from_rows(
        [[0] * n if z else r for r, z in zip(rows, zeroed)], cols=n
    )


def sparse_rows(a: IntMatrix) -> list:
    return [{j: e for j, e in enumerate(a.row(i)) if e} for i in range(a.rows)]


@given(pooled_matrices())
@settings(max_examples=200)
def test_smith_invariants_match_snf(a):
    rank, torsion = smith_invariants(sparse_rows(a))
    factors = snf(a).invariant_factors()
    assert rank == len(factors)
    assert torsion == tuple(d for d in factors if d > 1)


def test_smith_invariants_frozen_examples():
    assert smith_invariants([]) == (0, ())
    assert smith_invariants([{}, {}]) == (0, ())
    assert smith_invariants([{0: 2}, {1: 3}]) == (2, (6,))
    # one unit pivot, then the leftover [[2, 4]] has invariant factor 2
    assert smith_invariants([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 5}]) == (2, (2,))


@st.composite
def sparse_row_lists(draw):
    """(rows, width): {column: entry} rows with explicit zero entries and
    empty rows, negative and non-unit pivots, and rows that are integer
    combinations of two others, zeros kept; shapes square, wide or tall."""
    m, width = draw(
        st.sampled_from([(12, 12), (4, 30), (30, 4)]).flatmap(
            lambda shape: st.tuples(st.integers(0, shape[0]), st.integers(0, shape[1]))
        )
    )
    pool = draw(st.sampled_from(ENTRY_POOLS))
    columns = st.just([])
    if width:
        columns = st.lists(st.integers(0, width - 1), max_size=width, unique=True)
    rows = [{j: draw(pool) for j in draw(columns)} for _ in range(m)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        combo = {j: x * a.get(j, 0) + y * b.get(j, 0) for j in sorted(a.keys() | b.keys())}
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows, width


def chain_rows():
    """The diagonal rows abgroups._chain sends: one torsion order per row."""
    return st.lists(st.integers(2, 60), max_size=12).map(
        lambda ds: ([{i: d} for i, d in enumerate(ds)], len(ds))
    )


@given(st.one_of(sparse_row_lists(), chain_rows()))
@settings(max_examples=300, deadline=None)
def test_smith_invariants_match_the_unit_pivot_heap_and_dense_snf(case):
    rows, width = case
    before = [dict(row) for row in rows]
    got = smith_invariants(rows)
    assert rows == before  # no input row changes
    assert got == heap_smith_invariants(rows)
    dense = IntMatrix.from_rows([[row.get(j, 0) for j in range(width)] for row in rows], cols=width)
    factors = snf(dense).invariant_factors()
    assert got == (len(factors), tuple(d for d in factors if d > 1))


@given(
    st.one_of(
        pooled_matrices(),
        pooled_matrices(max_dim=16, max_cols=3),  # tall
        pooled_matrices(max_dim=3, max_cols=16),  # wide
    )
)
@settings(max_examples=200)
def test_hermite_rows_match_nonzero_rows_of_hnf(a):
    rows = [a.row(i) for i in range(a.rows)]
    res = hnf(a)
    assert hermite_rows(rows, a.cols) == tuple(res.H.row(i) for i in range(res.rank))


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=24):
    """Matrices whose rows are each zero, sparse (one to three nonzeros,
    entries up to 40) or dense, as the ideal-power walk and module checks
    feed them to hermite_rows."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "sparse", "sparse", "dense"]))
        row = [0] * n
        if kind == "sparse":
            for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                row[j] = draw(st.integers(-40, 40))
        elif kind == "dense":
            row = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=n)


@given(sparse_matrices())
@settings(max_examples=120, deadline=None)
def test_sparse_hermite_rows_match_nonzero_rows_of_dense_hnf(a):
    # The dense elimination, with a transform carried, and the sparse one
    # must reach the same unique basis.
    rows = [a.row(i) for i in range(a.rows)]
    res = dense_hnf(a)
    want = tuple(res.H.row(i) for i in range(res.rank))
    assert hermite_rows(rows, a.cols) == want
    maps = [{j: e for j, e in enumerate(row) if e} for row in rows]
    assert hermite_terms(maps) == Lattice.from_rows(want, a.cols).terms


def test_hermite_rows_edge_cases():
    assert hermite_rows([], 3) == ()
    assert hermite_rows([(0, 0), (0, 0)], 2) == ()
    assert hermite_rows([(0, -4), (0, 6)], 2) == ((0, 2),)
    with pytest.raises(InputError):
        hermite_rows([(1, 2), (3,)], 2)


NON_INTS = (1.5, -1.7, 4.0, True, "1")


def test_dense_vectors_to_sparse_rows_take_only_ints():
    # hermite_rows and Lattice.span read their vectors through _sparse_rows.
    for bad in NON_INTS:
        with pytest.raises(InputError, match="must be ints"):
            hermite_rows([(bad, 0)], 2)
        with pytest.raises(InputError, match="must be ints"):
            Lattice.span([(1, 0), (0, bad)], 2)
    assert hermite_rows([(2, 0)], 2) == ((2, 0),)


def test_matrix_from_rows_takes_only_ints():
    for bad in NON_INTS:
        with pytest.raises(InputError, match="must be ints"):
            IntMatrix.from_rows([[2, bad]])
        with pytest.raises(InputError, match="must be ints"):
            IntMatrix(1, 1, (bad,))
        with pytest.raises(InputError, match="must be ints"):
            IntMatrix.diagonal([2, bad])
    assert IntMatrix.from_rows([[2, 1]]).entries == (2, 1)


def test_lattice_rows_and_solve_take_only_ints():
    for bad in NON_INTS:
        with pytest.raises(InputError, match="must be ints"):
            hermite_solve([(1, 0), (0, 2)], (3, bad))
        with pytest.raises(InputError, match="must be ints"):
            in_lattice([(1, 0), (0, 2)], (bad, 4))
        with pytest.raises(InputError, match="must be ints"):
            hermite_solve([(1, 0), (0, bad)], (3, 4))  # the basis rows too
    assert hermite_solve([(1, 0), (0, 2)], (3, 4)) == [3, 2]


def test_lattice_solve_takes_only_vectors_of_its_width():
    lattice = Lattice.from_rows([(1, 0, 0), (0, 2, 0)], 3)
    for v in ((1,), (1, 0), (1, 0, 0, 0), (1, 0, 0, 5)):
        with pytest.raises(InputError, match="vector length"):
            lattice.solve(v)
        with pytest.raises(InputError, match="vector length"):
            lattice.contains(v)
    assert lattice.solve((1, 4, 0)) == [1, 2]
    assert not lattice.contains((1, 1, 0))


def classical_snf(a: IntMatrix):
    """(U, D, V) by classical pivoting: the Smith form before Hermite steps.

    The pivot is a smallest-magnitude nonzero entry of the working
    submatrix.  Its transforms grow to thousands of bits on 8x8 inputs,
    so it serves only as the oracle for D.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def row_sub(i, k, q):
        d[i] = [x - q * y for x, y in zip(d[i], d[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_swap(j, k):
        for row in d + v:
            row[j], row[k] = row[k], row[j]

    def col_sub(j, k, q):
        for row in d + v:
            row[j] -= q * row[k]

    t = 0
    while t < min(m, n):
        entries = [(abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j]]
        if not entries:
            break
        _, i0, j0 = min(entries)
        row_swap(t, i0)
        col_swap(t, j0)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    row_sub(i, t, d[i][t] // d[t][t])
                    if d[i][t]:  # the remainder is smaller: promote it
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
            wit = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % d[t][t]),
                None,
            )
            if wit is None:
                break
            row_sub(t, wit, -1)  # add the row that breaks divisibility
        t += 1
    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return tuple(IntMatrix.from_rows(x, cols=c) for x, c in ((u, m), (d, n), (v, n)))


def hadamard_bits(a: IntMatrix) -> float:
    """log2 of the smaller of the products of the row norms and of the
    column norms, each norm taken as at least 1: a bound on every minor."""
    rows = a.to_rows()
    cols = [list(c) for c in zip(*rows)]
    return min(
        sum(log2(max(1, sum(e * e for e in r))) / 2 for r in lines)
        for lines in (rows, cols)
    )


# The stated bound on Smith transforms: every entry of U and V has at
# most 2 * hadamard_bits(A) + 2 bits.  Over 10,000 random matrices up to
# 12x12 (entries up to 50, dense and sparse) the largest entry used at
# most 1.8 times hadamard_bits(A) bits, and 1 bit when that is 0.
def transform_bits_bound(a: IntMatrix) -> float:
    return 2 * hadamard_bits(a) + 2


@given(
    st.one_of(
        pooled_matrices(max_dim=12),
        pooled_matrices(max_dim=12, max_cols=3),  # tall
        pooled_matrices(max_dim=3, max_cols=12),  # wide
        matrices(max_dim=12),
    )
)
@settings(max_examples=150, deadline=None)
def test_snf_identities_oracle_and_transform_bound(a):
    dec = snf(a)
    assert mul(mul(dec.U, a), dec.V).entries == dec.D.entries
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    if a.rows <= 8 and a.cols <= 8:
        assert dec.D == classical_snf(a)[1]
    else:
        assert dec.invariant_factors() == invariant_factors(a)
    bits = max((abs(e).bit_length() for e in dec.U.entries + dec.V.entries), default=0)
    assert bits <= transform_bits_bound(a)


@given(
    st.one_of(
        pooled_matrices(max_dim=8),
        pooled_matrices(max_dim=12, max_cols=3),
        pooled_matrices(max_dim=3, max_cols=12),
    )
)
@settings(max_examples=200, deadline=None)
def test_invariant_factors_match_classical_oracle(a):
    d = classical_snf(a)[1]
    want = tuple(d.entry(i, i) for i in range(min(d.rows, d.cols)) if d.entry(i, i))
    assert invariant_factors(a) == want


def test_classical_oracle_agrees_with_frozen_examples():
    a = IntMatrix.from_rows([(2, 4, 4), (6, 6, 12)], cols=3)
    u, d, v = classical_snf(a)
    assert mul(mul(u, a), v) == d
    assert d.to_rows() == [[2, 0, 0], [0, 6, 0]]


def xgcd_echelon_insert(basis: dict, row: dict) -> bool:
    """echelon_insert as it was before it took hermite_terms' Euclid step:
    a remainder left at the pivot puts gcd(a, b) there at once, by xgcd."""
    grew = False
    while row:
        p = min(row)
        lead = basis.get(p)
        if lead is None:
            basis[p] = row
            return True
        a, b = row[p], lead[p]
        q, rem = divmod(a, b)
        if rem:
            g, x, y = xgcd(b, a)
            basis[p] = term_product(((0, x), (1, y)) if x else ((1, y),), (lead, row))
            row = term_product(((0, b // g), (1, -(a // g))), (row, lead))
            grew = True
        else:
            row = term_product(((0, 1), (1, -q)), (row, lead))
    return grew


@st.composite
def non_unit_lead_rows(draw):
    """(width, rows): up to 7 int rows of width 1 to 5, each led by an
    entry of absolute value 2 to 12, so rows led in one column often
    leave a remainder there."""
    width = draw(st.integers(1, 5))
    lead = st.integers(2, 12).flatmap(lambda a: st.sampled_from((a, -a)))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        p = draw(st.integers(0, width - 1))
        tail = draw(st.lists(st.integers(-6, 6), min_size=width - p - 1, max_size=width - p - 1))
        rows.append((0,) * p + (draw(lead),) + tuple(tail))
    return width, rows


def insert_one_by_one(width, rows) -> int:
    """Insert the rows into one echelon basis in turn, checking each grew
    answer against Lattice.span and the xgcd oracle and the final lattice
    against Lattice.span; returns the Euclid swaps seen, counted as the
    pivots whose entry an insertion changed."""
    basis, oracle, swaps = {}, {}, 0
    for i, v in enumerate(rows):
        before = {p: lead[p] for p, lead in basis.items()}
        grew = echelon_insert(basis, {j: e for j, e in enumerate(v) if e})
        assert grew == (not Lattice.span(rows[:i], width).contains(v))
        assert grew == xgcd_echelon_insert(oracle, {j: e for j, e in enumerate(v) if e})
        assert all(min(row) == p for p, row in basis.items())  # still echelon
        swaps += sum(basis[p][p] != e for p, e in before.items())
    dense = [[row.get(j, 0) for j in range(width)] for row in basis.values()]
    assert Lattice.span(dense, width) == Lattice.span(rows, width)
    return swaps


def test_echelon_insert_matches_span_and_xgcd_oracle():
    swaps = []

    @given(non_unit_lead_rows())
    @settings(max_examples=300, deadline=None)
    def check(case):
        swaps.append(insert_one_by_one(*case))

    check()
    # the swap, a remainder left at a pivot, ran in many of the cases
    assert sum(1 for n in swaps if n) >= len(swaps) // 10


def test_echelon_insert_takes_the_euclid_step():
    basis = {0: {0: 4, 1: 1}}
    assert echelon_insert(basis, {0: 6}) is True
    # 6 - 4 leaves 2 at the pivot: (2, -1) becomes the pivot row and
    # (4, 1) - 2 (2, -1) = (0, 3) carries on to column 1
    assert basis == {0: {0: 2, 1: -1}, 1: {1: 3}}
    assert echelon_insert(basis, {0: 2, 1: 2}) is False
    assert echelon_insert(basis, {1: -9}) is False
    assert echelon_insert(basis, {1: 4}) is True
    assert basis == {0: {0: 2, 1: -1}, 1: {1: 1}}


# The dense Hermite path as it was before every Hermite form moved to
# hermite_terms, kept as the oracle: the elimination as its own function,
# the transform-carrying step of hnf and snf, a second hnf for
# kernel_basis, and a dense reduction of the kernel rows.


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


def dense_hnf(a: IntMatrix) -> HnfResult:
    h, t = dense_hermite_step(a.to_rows(), IntMatrix.identity(a.rows).to_rows(), a.cols)
    return HnfResult(IntMatrix.from_rows(h, cols=a.cols), IntMatrix.from_rows(t, cols=a.rows))


def two_hnf_kernel_basis(a: IntMatrix) -> IntMatrix:
    res = dense_hnf(a)
    ker_rows = [list(res.transform.row(i)) for i in range(res.rank, a.rows)]
    if not ker_rows:
        return IntMatrix.zeros(0, a.rows)
    reduced = dense_hnf(IntMatrix.from_rows(ker_rows, cols=a.rows))
    return IntMatrix.from_rows([reduced.H.row(i) for i in range(reduced.rank)], cols=a.rows)


def augmented_hermite(a: IntMatrix) -> tuple:
    """The row Hermite form of [A | I], the elimination run over all of
    its columns, split into the A block and the I block."""
    m, n = a.rows, a.cols
    h = [list(a.row(i)) + [int(i == k) for k in range(m)] for i in range(m)]
    dense_hermite_reduce(h, n + m)
    return (
        IntMatrix(m, n, tuple(e for row in h for e in row[:n])),
        IntMatrix(m, m, tuple(e for row in h for e in row[n:])),
    )


@st.composite
def low_rank_matrices(draw, max_dim=9, max_entry=6):
    """m x n products of m x k and k x n matrices, k < min(m, n), so
    both kernels are nonzero."""
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    k = draw(st.integers(0, min(m, n) - 1))
    entries = st.integers(-max_entry, max_entry)
    b = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    c = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    return IntMatrix.from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] if k else [0] * n for row in b],
        cols=n,
    )


@given(
    st.one_of(
        matrices(max_dim=9, max_entry=6),
        low_rank_matrices(),
        pooled_matrices(max_dim=9),
    )
)
@example(IntMatrix(0, 0, ()))
@example(IntMatrix(0, 3, ()))
@example(IntMatrix(3, 0, ()))
@settings(max_examples=200, deadline=None)
def test_normal_forms_match_the_dense_kernel_oracle(a):
    # snf and kernel_basis are the dense path's, byte for byte.  [H |
    # transform] is the row Hermite form of [A | I], which is unique, so
    # the dense elimination over all of its columns gives hnf exactly,
    # rank-deficient draws included; H alone is the dense path's.
    with mock.patch.multiple(
        intmat, _hermite_step=dense_hermite_step, _kernel_reduce=dense_kernel_reduce
    ):
        want = snf(a), two_hnf_kernel_basis(a)
    got = snf(a), kernel_basis(a)
    assert got == want
    assert repr(got) == repr(want)
    res = hnf(a)
    assert (res.H, res.transform) == augmented_hermite(a)
    assert repr(res.H) == repr(dense_hnf(a).H)


def test_kernel_paths_read_hermite_terms(monkeypatch):
    # Every Hermite form is read from hermite_terms, on maps the library
    # built: hermite_rows, the checking dense reader, is not on the path.
    # Each call is recorded by the number of rows it reads.
    calls = []
    real = intmat.hermite_terms
    monkeypatch.setattr(intmat, "hermite_terms", lambda maps: calls.append(len(maps)) or real(maps))
    monkeypatch.setattr(intmat, "hermite_rows", None)
    a = IntMatrix.from_rows([(1, 2, 3), (2, 4, 6), (0, 0, 0)], cols=3)
    assert kernel_basis(a).to_rows() == [[2, -1, 0], [0, 0, 1]]
    assert calls == [3]  # the rows of [A | I], read once: no second reduction
    calls.clear()
    dec = snf(a)
    assert dec.D.to_rows() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert calls == [3, 3]  # one row step, one column step
    calls.clear()
    # smith_invariants reads its rows by the echelon alone, with no
    # above-pivot reduction: with every pivot 1 nothing else runs, and
    # otherwise only the Smith block of the rows left over is read.
    assert smith_invariants([{0: 1, 1: 4}, {0: 2, 1: 8}, {1: -1}]) == (2, ())
    assert calls == []
    assert smith_invariants([{0: 2, 1: 4}, {0: 4, 1: 8}]) == (1, (2,))
    assert calls == [1, 2]  # the one echelon row, then its two columns
