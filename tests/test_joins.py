"""Join complex tests: small frozen complexes and formula consistency.

Frozen geometry: the 2-fold join of 3 points is K_3,3 (a wedge of four
circles up to homotopy) and the 3-fold join of 2 points is the
octahedron sphere.

The independent oracle for homology is the dense kernel/image route:
dense boundary matrices, a Hermite kernel basis, the image solved in
that basis, and the Smith form of the resulting presentation.  The
per-map route, smith_invariants on each whole boundary with no cell
coreduced, is kept here as a second oracle for the coreduction.  The
boundaries built from face masks are checked entry for entry against
the tuple route: itertools face lists, sorted vertex tuples, and each
sub-face found by slicing one vertex out.
"""

import time
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equik.errors as errors

from equik.abgroups import FgAbelianGroup, Presentation, TRIVIAL_GROUP, normalize
from equik.errors import CapExceededError, EquikError, InputError
from equik.intmat import (
    IntMatrix,
    SparseMatrix,
    hermite_rows,
    hermite_solve,
    kernel_basis,
    smith_invariants,
    snf,
)
from equik import joins
from equik.joins import (
    ChainComplex,
    JoinComplex,
    boundary_matrices,
    build_join_complex,
    check_boundaries,
    join_k_theory_formula,
    join_step_formula,
    mayer_vietoris_delta,
    oracle_consistency,
    reduced_homology,
)
from dense_algebra import heap_smith_invariants, is_zero, mul


def densify(m: SparseMatrix) -> IntMatrix:
    return IntMatrix.from_rows(
        [[row.get(j, 0) for j in range(m.cols)] for row in m.data], cols=m.cols
    )


def tuple_faces(jc: JoinComplex, d: int) -> list:
    """All d-faces as sorted vertex tuples, in lexicographic order.

    Vertex (block p, point v) has id p * part_size + v; a face picks
    at most one vertex per block.
    """
    if d < 0 or d > jc.dimension:
        return []
    out = []
    for blocks in combinations(range(jc.parts), d + 1):
        for pts in product(range(jc.part_size), repeat=d + 1):
            out.append(tuple(blocks[i] * jc.part_size + pts[i] for i in range(d + 1)))
    out.sort()
    return out


def tuple_boundary_matrices(jc: JoinComplex) -> ChainComplex:
    """Sparse boundaries from vertex tuples: row i of the degree-d map
    drops vertex position p of d-face i with sign (-1)^p."""
    faces_by_dim = [tuple_faces(jc, d) for d in range(jc.parts)]
    mats = []
    for d in range(1, jc.parts):
        index = {face: i for i, face in enumerate(faces_by_dim[d - 1])}
        rows = []
        for face in faces_by_dim[d]:
            row = {}
            sign = 1
            for drop in range(d + 1):
                row[index[face[:drop] + face[drop + 1 :]]] = sign
                sign = -sign
            rows.append(row)
        mats.append(SparseMatrix(len(rows), len(index), tuple(rows)))
    return ChainComplex(jc.face_counts(), tuple(mats))


def with_augmentation(chain: ChainComplex) -> tuple:
    """The maps reduced_homology checks: the augmentation, then the boundaries."""
    n_vert = chain.face_counts[0]
    return (SparseMatrix(n_vert, 1, ({0: 1},) * n_vert),) + chain.boundaries


def dense_boundaries(jc: JoinComplex) -> list:
    """Dense boundary matrices built straight from the face lists."""
    faces_by_dim = [tuple_faces(jc, d) for d in range(jc.parts)]
    index = [{face: i for i, face in enumerate(faces)} for faces in faces_by_dim]
    mats = []
    for d in range(1, jc.parts):
        rows = len(faces_by_dim[d])
        cols = len(faces_by_dim[d - 1])
        ent = [0] * (rows * cols)
        for ri, face in enumerate(faces_by_dim[d]):
            sign = 1
            for drop in range(d + 1):
                ent[ri * cols + index[d - 1][face[:drop] + face[drop + 1 :]]] = sign
                sign = -sign
        mats.append(IntMatrix(rows, cols, tuple(ent)))
    return mats


def dense_reduced_homology(jc: JoinComplex) -> tuple:
    return dense_chain_homology(jc.face_counts()[0], dense_boundaries(jc))


def dense_chain_homology(n_vert: int, bnds) -> tuple:
    """Reduced homology as kernel modulo image, presented and normalized."""
    maps = [IntMatrix(n_vert, 1, (1,) * n_vert)] + list(bnds)
    groups = []
    for d in range(len(maps)):
        ker = kernel_basis(maps[d])
        ker_rows = [ker.row(i) for i in range(ker.rows)]
        img_rows = ()
        if d + 1 < len(maps):
            upper = maps[d + 1]
            img_rows = hermite_rows(upper.to_rows(), upper.cols)
        rel = [hermite_solve(ker_rows, row) for row in img_rows]
        assert all(sol is not None for sol in rel), "image escaped the kernel"
        relmat = IntMatrix.from_rows(rel, cols=len(ker_rows))
        groups.append(normalize(Presentation(len(ker_rows), relmat)))
    return tuple(groups)


def per_map_homology(maps) -> tuple:
    """Reduced homology from smith_invariants on each whole map, maps[0]
    the augmentation and the cells of each degree counted by its rows."""
    invariants = [smith_invariants(m.data) for m in maps] + [(0, ())]
    return tuple(
        FgAbelianGroup(m.rows - invariants[d][0] - invariants[d + 1][0], invariants[d + 1][1])
        for d, m in enumerate(maps)
    )


def simplicial_chain(facets) -> ChainComplex:
    """Sparse boundaries of the downward closure of the given facets,
    faces in lexicographic order, with boundary_matrices' signs."""
    faces = {
        f for facet in facets for r in range(1, len(facet) + 1)
        for f in combinations(sorted(facet), r)
    }
    by_dim = [
        sorted(f for f in faces if len(f) == d + 1) for d in range(max(map(len, faces)))
    ]
    mats = []
    for d in range(1, len(by_dim)):
        index = {face: i for i, face in enumerate(by_dim[d - 1])}
        rows = tuple(
            {index[face[:k] + face[k + 1 :]]: (-1) ** k for k in range(d + 1)}
            for face in by_dim[d]
        )
        mats.append(SparseMatrix(len(rows), len(index), rows))
    return ChainComplex(tuple(map(len, by_dim)), tuple(mats))


# The 6-vertex projective plane (the hemi-icosahedron): H~1 = Z_2.  Its
# top boundary has rank 10 and torsion 2, and coreduction stops short on
# it, so rows are left for the Smith elimination.
RP2_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)


def test_k33_complex():
    jc = build_join_complex(3, 2)
    assert jc.vertex_count == 6
    assert jc.face_counts() == (6, 9)
    betti = reduced_homology(jc)
    assert betti.group_at(0) == TRIVIAL_GROUP
    assert betti.group_at(1) == FgAbelianGroup(4, ())


def test_octahedron_complex():
    jc = build_join_complex(2, 3)
    assert jc.face_counts() == (6, 12, 8)
    betti = reduced_homology(jc)
    assert [g.render() for g in betti.groups] == ["0", "0", "Z"]


def test_single_part_is_discrete_set():
    jc = build_join_complex(4, 1)
    betti = reduced_homology(jc)
    assert betti.group_at(0) == FgAbelianGroup(3, ())


def test_faces_are_sorted_and_cross_block():
    jc = build_join_complex(2, 3)
    edges = tuple_faces(jc, 1)
    assert edges == sorted(edges)
    for a, b in edges:
        assert a // 2 != b // 2


def mask_vertices(jc: JoinComplex, mask: int) -> tuple:
    """The sorted vertex tuple of a face mask: vertex v sits on bit top - v."""
    top = jc.vertex_count - 1
    return tuple(v for v in range(top + 1) if mask >> (top - v) & 1)


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (3, 1), (2, 3), (3, 3), (4, 2), (2, 5)])
def test_face_masks_are_the_lexicographic_vertex_tuples(n, k):
    jc = build_join_complex(n, k)
    masks = joins._face_masks(jc)
    assert masks[0] == [0] and len(masks) == k + 1
    for d in range(k):
        assert masks[d + 1] == sorted(masks[d + 1], reverse=True)
        assert [mask_vertices(jc, f) for f in masks[d + 1]] == tuple_faces(jc, d)


# The benchmark's `join homology` grid.
HOMOLOGY_GRID = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (6, 3))
# The grid, two larger joins, and the n = 1 and k = 1 edges.
BOUNDARY_CASES = HOMOLOGY_GRID + ((2, 7), (3, 5), (1, 1), (1, 2), (1, 6), (2, 1), (7, 1))


def assert_same_boundaries(jc: JoinComplex) -> None:
    chain, oracle = boundary_matrices(jc), tuple_boundary_matrices(jc)
    assert chain.face_counts == oracle.face_counts
    assert len(chain.boundaries) == len(oracle.boundaries) == jc.parts - 1
    for mine, theirs in zip(chain.boundaries, oracle.boundaries):
        assert (mine.rows, mine.cols) == (theirs.rows, theirs.cols)
        assert mine.data == theirs.data


@pytest.mark.parametrize("n,k", BOUNDARY_CASES)
def test_mask_boundaries_equal_tuple_boundaries(n, k):
    assert_same_boundaries(build_join_complex(n, k))


# Joins of at most 3000 faces, each far inside the work budget.
CAPPED_JOINS = [(n, k) for n in range(1, 13) for k in range(1, 12) if (n + 1) ** k - 1 <= 3000]


@given(st.sampled_from(CAPPED_JOINS))
@settings(max_examples=40, deadline=None)
def test_mask_boundaries_equal_tuple_boundaries_under_the_cap(nk):
    assert_same_boundaries(build_join_complex(*nk))


@given(st.sampled_from([(2, 3), (2, 5), (3, 3), (3, 4), (4, 3)]), st.data())
@settings(max_examples=30, deadline=None)
def test_one_flipped_sign_is_named_by_its_row_and_map(nk, data):
    maps = with_augmentation(boundary_matrices(build_join_complex(*nk)))
    check_boundaries(maps)
    d = data.draw(st.integers(1, len(maps) - 1), label="map")
    i = data.draw(st.integers(0, maps[d].rows - 1), label="row")
    row = dict(maps[d].data[i])
    j = data.draw(st.sampled_from(sorted(row)), label="column")
    row[j] = -row[j]
    rows = maps[d].data[:i] + (row,) + maps[d].data[i + 1 :]
    bad = maps[:d] + (SparseMatrix(maps[d].rows, maps[d].cols, rows),) + maps[d + 1 :]
    message = f"^boundary of a boundary is not zero: row {i} of map {d}$"
    with pytest.raises(EquikError, match=message):
        check_boundaries(bad)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_boundary_of_boundary_vanishes(n, k):
    chain = boundary_matrices(build_join_complex(n, k))
    for upper, lower in zip(chain.boundaries[1:], chain.boundaries):
        assert is_zero(mul(densify(upper), densify(lower)))


def test_boundary_check_rejects_a_corrupted_complex():
    chain = boundary_matrices(build_join_complex(2, 3))
    check_boundaries(chain.boundaries)
    edges, triangles = chain.boundaries
    bad = dict(triangles.data[0])
    bad[next(iter(bad))] *= -1
    corrupted = SparseMatrix(
        triangles.rows, triangles.cols, (bad,) + triangles.data[1:]
    )
    with pytest.raises(EquikError, match="row 0 of map 1"):
        check_boundaries((edges, corrupted))


def test_homology_reads_torsion_from_the_boundary_above(monkeypatch):
    # cellular chains of the projective plane: edges e1, e2 both run from
    # a to b, and one 2-cell is attached along e1 - e2 twice, so H~1 = Z_2
    rp2 = ChainComplex(
        (2, 2, 1),
        (
            SparseMatrix(2, 2, ({0: -1, 1: 1}, {0: -1, 1: 1})),
            SparseMatrix(1, 2, ({0: 2, 1: -2},)),
        ),
    )
    monkeypatch.setattr(joins, "boundary_matrices", lambda jc: rp2)
    betti = reduced_homology(build_join_complex(2, 3))
    assert [g.render() for g in betti.groups] == ["0", "Z_2", "0"]


facet_lists = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=7), min_size=1, max_size=5
)


@given(facet_lists)
@example(RP2_FACETS)
@settings(max_examples=40, deadline=None)
def test_homology_matches_per_map_and_dense_oracles(facets):
    chain = simplicial_chain(facets)
    dense = dense_chain_homology(
        chain.face_counts[0], [densify(m) for m in chain.boundaries]
    )
    with mock.patch.object(joins, "boundary_matrices", lambda jc: chain):
        groups = reduced_homology(build_join_complex(1, 1)).groups
    assert groups == per_map_homology(with_augmentation(chain)) == dense


def test_projective_plane_top_boundary_has_torsion_two():
    chain = simplicial_chain(RP2_FACETS)
    assert chain.face_counts == (6, 15, 10)
    assert smith_invariants(chain.boundaries[1].data) == (10, (2,))
    with mock.patch.object(joins, "boundary_matrices", lambda jc: chain):
        betti = reduced_homology(build_join_complex(1, 1))
    assert [g.render() for g in betti.groups] == ["0", "Z_2", "0"]


def rows_eliminated(chain: ChainComplex) -> tuple:
    """The reduced groups, and the rows reduced_homology hands
    smith_invariants, top map first, when the complex's boundaries are
    the chain's."""
    passed, inner = [], joins.smith_invariants

    def recording(rows):
        passed.append(list(rows))
        return inner(rows)

    with mock.patch.object(joins, "boundary_matrices", lambda jc: chain):
        with mock.patch.object(joins, "smith_invariants", recording):
            groups = reduced_homology(build_join_complex(1, 1)).groups
    return groups, passed


def test_homology_reads_each_coreduced_map_whole():
    # coreduction leaves 5 edges and 5 triangles, and every row of the
    # triangles' map goes to the elimination; the edges' map, all empty
    # rows, and the emptied augmentation have rank 0 with no elimination
    groups, passed = rows_eliminated(simplicial_chain(RP2_FACETS))
    assert [g.render() for g in groups] == ["0", "Z_2", "0"]
    assert [len(rows) for rows in passed] == [5]


def test_homology_eliminates_only_the_critical_cells_of_a_join():
    jc = build_join_complex(2, 6)
    groups, passed = rows_eliminated(boundary_matrices(jc))
    assert [g.free_rank for g in groups] == [0, 0, 0, 0, 0, 1]
    assert sum(jc.face_counts()) == 728
    assert passed == []  # the one critical cell has no face left


def assert_coreduced_in_step(maps, kept) -> None:
    """kept is a complex of the maps' shape whose columns follow the rows below."""
    assert len(kept) == len(maps) and kept[0].cols <= 1
    for lower, upper in zip(kept, kept[1:]):
        assert upper.cols == lower.rows
    for m in kept:
        assert len(m.data) == m.rows
        assert all(0 <= j < m.cols for row in m.data for j in row)
    check_boundaries(kept)


@given(facet_lists)
@example(RP2_FACETS)
@settings(max_examples=40, deadline=None)
def test_coreduced_homology_matches_per_map_and_dense_oracles(facets):
    chain = simplicial_chain(facets)
    maps = with_augmentation(chain)
    kept = joins.coreduce(maps)
    assert_coreduced_in_step(maps, kept)
    dense = dense_chain_homology(
        chain.face_counts[0], [densify(m) for m in chain.boundaries]
    )
    assert per_map_homology(kept) == per_map_homology(maps) == dense


def test_projective_plane_coreduces_to_five_edges_and_five_triangles():
    maps = with_augmentation(simplicial_chain(RP2_FACETS))
    kept = joins.coreduce(maps)
    assert [m.rows for m in kept] == [0, 5, 5]
    assert all(row == {} for row in kept[1].data)
    assert [g.render() for g in per_map_homology(kept)] == ["0", "Z_2", "0"]


def test_a_face_of_coefficient_two_reaches_the_elimination_untouched():
    # one vertex, one loop and a 2-cell attached along the loop twice: the
    # vertex pairs with the empty cell, and nothing pairs with the loop
    chain = ChainComplex((1, 1, 1), (SparseMatrix(1, 1, ({},)), SparseMatrix(1, 1, ({0: 2},))))
    kept = joins.coreduce(with_augmentation(chain))
    assert [(m.rows, m.cols, m.data) for m in kept] == [
        (0, 0, ()), (1, 0, ({},)), (1, 1, ({0: 2},))
    ]
    groups, passed = rows_eliminated(chain)
    assert [g.render() for g in groups] == ["0", "Z_2", "0"]
    assert passed == [[{0: 2}]]


@pytest.mark.parametrize(
    "chain",
    [simplicial_chain(RP2_FACETS), boundary_matrices(build_join_complex(3, 4))],
    ids=["rp2", "join(3, 4)"],
)
def test_coreduction_leaves_every_input_row_as_it_was(chain):
    maps = with_augmentation(chain)
    before = [[dict(row) for row in m.data] for m in maps]
    shared = maps[0].data[0]  # the augmentation's rows are one dict
    joins.coreduce(maps)
    with mock.patch.object(joins, "boundary_matrices", lambda jc: chain):
        reduced_homology(build_join_complex(1, 1))
    assert [list(m.data) for m in maps] == before
    assert shared == {0: 1} and all(row is shared for row in maps[0].data)


@pytest.mark.parametrize("n,k", HOMOLOGY_GRID)
def test_coreduction_leaves_one_cell_per_betti_number_on_a_join(n, k):
    # every join is a wedge of (n-1)^k spheres of dimension k-1, and
    # coreduction leaves just that many top cells, none with a face
    maps = with_augmentation(boundary_matrices(build_join_complex(n, k)))
    kept = joins.coreduce(maps)
    assert_coreduced_in_step(maps, kept)
    assert [m.rows for m in kept] == [0] * (k - 1) + [(n - 1) ** k]
    assert all(row == {} for row in kept[-1].data)
    betti = reduced_homology(build_join_complex(n, k))
    assert sum(g.free_rank for g in betti.groups) == (n - 1) ** k


def test_sparse_boundaries_match_dense_ones():
    jc = build_join_complex(3, 3)
    chain = boundary_matrices(jc)
    assert [(m.rows, m.cols) for m in chain.boundaries] == [(27, 9), (27, 27)]
    assert [densify(m) for m in chain.boundaries] == dense_boundaries(jc)


# At most 500 faces; n stops at 12 because the dense oracle's kernel
# transform for k = 2 has n^4 entries.
SMALL_JOINS = [
    (n, k) for n in range(1, 13) for k in range(1, 9) if (n + 1) ** k - 1 <= 500
]


@given(st.sampled_from(SMALL_JOINS))
@settings(max_examples=15, deadline=None)
def test_homology_matches_dense_oracle(nk):
    jc = build_join_complex(*nk)
    assert reduced_homology(jc).groups == dense_reduced_homology(jc)


@given(st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=60)
def test_formula_matches_iterated_steps(n, k):
    l, r = n, 0  # K-theory ranks of the 1-fold join, a discrete set
    for _ in range(k - 1):
        l, r = join_step_formula(l, r, n)
    assert (l, r) == join_k_theory_formula(n, k)


def test_k_theory_rank_cap_is_checked_before_the_power():
    assert join_k_theory_formula(3, 1000) == (1, 2**1000)  # 1000 * 2 bits
    with pytest.raises(CapExceededError):
        join_k_theory_formula(3, 1001)
    assert join_k_theory_formula(2**2000, 1) == (2**2000, 0)  # 2000 bits
    with pytest.raises(CapExceededError):
        join_k_theory_formula(2**2000 + 1, 1)
    assert join_k_theory_formula(2, 10**100) == (1, 1)
    assert join_k_theory_formula(1, 10**100 + 1) == (1, 0)


def test_join_step_input_validation():
    with pytest.raises(InputError):
        join_step_formula(0, 1, 2)
    with pytest.raises(InputError):
        join_k_theory_formula(2, 0)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_oracle_consistency_small_grid(n, k):
    check = oracle_consistency(n, k)
    assert check.consistent
    assert check.torsion_free


def test_oracle_reproduces_full_rank_formula():
    check = oracle_consistency(4, 3)
    assert check.ranks.k0_rank == 3 ** 3 + 1
    assert check.ranks.k1_rank == 0
    assert check.consistent


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_two_point_join_is_a_sphere(k):
    betti = reduced_homology(build_join_complex(2, k))
    for d, g in enumerate(betti.groups):
        expected = FgAbelianGroup(1, ()) if d == k - 1 else TRIVIAL_GROUP
        assert g == expected


@pytest.mark.parametrize("l", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_mayer_vietoris_comparison_map(l, n):
    rep = mayer_vietoris_delta(l, n)
    assert rep.delta0.rows == l + n
    assert rep.delta0.cols == l * n
    assert rep.kernel_rank == 1
    assert rep.cokernel == FgAbelianGroup(l * n - l - n + 1, ())


@given(st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_mayer_vietoris_matches_dense_kernel_and_smith(l, n):
    rep = mayer_vietoris_delta(l, n)
    dense = densify(rep.delta0)
    assert rep.kernel_rank == kernel_basis(dense).rows
    factors = snf(dense).invariant_factors()
    assert rep.cokernel == FgAbelianGroup(
        dense.cols - len(factors), tuple(d for d in factors if d > 1)
    )


def test_mayer_vietoris_matches_the_direct_smith_reading_and_the_closed_form():
    # delta's rank and torsion come from the homology of K_(l,n); the old
    # reading ran the unit-pivot heap on delta's own rows
    for l, n in product(range(1, 13), repeat=2):
        rep = mayer_vietoris_delta(l, n)
        rank, torsion = heap_smith_invariants(rep.delta0.data)
        assert (rep.kernel_rank, rep.cokernel) == (
            rep.delta0.rows - rank, FgAbelianGroup(rep.delta0.cols - rank, torsion)
        )
        assert (rep.kernel_rank, rep.cokernel) == (1, FgAbelianGroup(l * n - l - n + 1, ()))


def test_complex_cap():
    with pytest.raises(CapExceededError):
        build_join_complex(10, 6)


def test_complex_cap_refuses_before_listing_faces(monkeypatch):
    def no_listing(jc):
        raise AssertionError("faces listed before the cap check")

    monkeypatch.setattr(joins, "_face_masks", no_listing)
    message = (  # 400 units for each of 6 * 10 * 11^5 = 9663060 nonzeros
        "^work budget exceeded: the 6-fold join of 10 points needs 3865224000 units, "
        "over 200000000$"
    )
    with pytest.raises(CapExceededError, match=message):
        build_join_complex(10, 6)


def test_complex_cap_counts_boundary_nonzeros():
    # k * n * (n+1)^(k-1) nonzeros, augmentation included
    build_join_complex(2, 7)
    build_join_complex(9, 5)  # 450000
    with pytest.raises(CapExceededError):
        build_join_complex(10, 5)  # 732050, though only 10^5 top cells


@pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (3, 3), (4, 2), (6, 2)])
def test_oracle_runs_exactly_when_its_complex_fits_the_budget(n, k):
    # k n (n+1)^(k-1) boundary nonzeros at 400 units each
    units = 400 * k * n * (n + 1) ** (k - 1)
    with mock.patch.object(errors, "WORK_BUDGET", units):
        assert oracle_consistency(n, k).consistent
    with mock.patch.object(errors, "WORK_BUDGET", units - 1):
        with pytest.raises(CapExceededError, match="^work budget exceeded: "):
            oracle_consistency(n, k)


@pytest.mark.parametrize("n,k", [(1, 10**18), (2, 30_000_000), (10**9, 10**6)])
def test_huge_join_is_refused_without_forming_the_power(n, k):
    started = time.perf_counter()
    with pytest.raises(CapExceededError, match=r"needs more than 2\^\d+ units"):
        build_join_complex(n, k)
    assert time.perf_counter() - started < 0.5


def test_mv_delta_charges_its_entries_before_the_map(monkeypatch):
    monkeypatch.setattr(joins, "SparseMatrix", None)  # building the map would fail
    message = (  # 250 units for each of the 10^10 entries
        "^work budget exceeded: a 200000 x 10000000000 comparison map needs "
        "2500000000000 units, over 200000000$"
    )
    with pytest.raises(CapExceededError, match=message):
        mayer_vietoris_delta(100000, 100000)
