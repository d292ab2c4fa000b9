"""Group invariant tests.

The closed-form tensor and Tor are checked against presentation-level
oracles built only on the matrix layer: the tensor product of two
presentations is the Kronecker presentation, and the d-torsion subgroup
B[d] comes from the kernel of the stacked lattice condition d*x in rel.
kron and vstack, the matrix operations these oracles need, live here.
The sparse cokernel is checked against the dense Smith diagonal, and
quotient against solving each row and reading the dense cokernel.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equik.abgroups import (
    FgAbelianGroup,
    Presentation,
    TRIVIAL_GROUP,
    cokernel,
    direct_sum,
    normalize,
    parse_group_literal,
    quotient,
    tensor,
    tor,
)
from equik.errors import InputError, LatticeContainmentError
from equik.intmat import IntMatrix, Lattice, hermite_rows, kernel_basis
from dense_algebra import dense_quotient, invariant_factors


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, blocks indexed row-major by a's entries."""
    rows = [
        [a.entry(i, j) * b.entry(k, l) for j in range(a.cols) for l in range(b.cols)]
        for i in range(a.rows)
        for k in range(b.rows)
    ]
    return IntMatrix.from_rows(rows, cols=a.cols * b.cols)


def vstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.cols:
        raise InputError("vstack needs equal column counts")
    return IntMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


@st.composite
def groups(draw, max_rank=2, max_factors=2, max_order=12):
    free = draw(st.integers(0, max_rank))
    n = draw(st.integers(0, max_factors))
    torsion = []
    last = 2
    for _ in range(n):
        mult = draw(st.integers(1, max(1, max_order // last)))
        value = last * mult
        if value < 2:
            break
        torsion.append(value)
        last = value
    return FgAbelianGroup(free, tuple(torsion))


def presentation_of(g: FgAbelianGroup) -> Presentation:
    gens = g.free_rank + len(g.torsion)
    rows = []
    for i, d in enumerate(g.torsion):
        row = [0] * gens
        row[g.free_rank + i] = d
        rows.append(tuple(row))
    rel = (
        IntMatrix.from_rows(rows, cols=gens) if rows else IntMatrix.zeros(0, gens)
    )
    return Presentation(gens, rel)


def tensor_presentation(a: Presentation, b: Presentation) -> Presentation:
    gens = a.generators * b.generators
    ia = IntMatrix.identity(a.generators)
    ib = IntMatrix.identity(b.generators)
    return Presentation(gens, vstack(kron(a.relations, ib), kron(ia, b.relations)))


def d_torsion_subgroup(d: int, b: FgAbelianGroup) -> FgAbelianGroup:
    """B[d] computed from a presentation, not from the gcd formula."""
    p = presentation_of(b)
    g = p.generators
    scaled = IntMatrix.diagonal([d] * g)
    stacked = vstack(scaled, p.relations)
    ker = kernel_basis(stacked)
    # x-parts of the kernel span {x : d*x in rel}; quotient by rel
    cover = [ker.row(i)[:g] for i in range(ker.rows)]
    cover += [p.relations.row(i) for i in range(p.relations.rows)]
    lattice = hermite_rows([tuple(r) for r in cover], g)
    rel = IntMatrix.from_rows(list(lattice), cols=g) if lattice else IntMatrix.zeros(0, g)
    # present the subgroup: generators = lattice rows, relations = multiples
    # landing in rel; since rel rows are included, solve rel rows in lattice
    from equik.intmat import hermite_solve

    rel_rows = []
    for i in range(p.relations.rows):
        sol = hermite_solve(list(lattice), p.relations.row(i))
        assert sol is not None
        rel_rows.append(sol)
    relmat = (
        IntMatrix.from_rows(rel_rows, cols=len(lattice))
        if rel_rows
        else IntMatrix.zeros(0, len(lattice))
    )
    return normalize(Presentation(len(lattice), relmat))


def test_group_validation():
    with pytest.raises(InputError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(InputError):
        FgAbelianGroup(0, (4, 6))
    with pytest.raises(InputError):
        FgAbelianGroup(-1, ())


@pytest.mark.parametrize(
    "free_rank,torsion",
    [(0, (6.9,)), (2.0, ()), (True, ()), (0, ("4",))],
    ids=["float-torsion", "float-free-rank", "bool-free-rank", "text-torsion"],
)
def test_group_takes_only_ints(free_rank, torsion):
    # each was truncated or read by int() before: Z_6, Z^2.0, Z, Z_4
    with pytest.raises(InputError, match="must be ints"):
        FgAbelianGroup(free_rank, torsion)


@pytest.mark.parametrize("text", ["Z^1_0", "Z^ 2", "Z_{{4", "Z_{4}", "Z_٣", "Z^+2", "Z_04"])
def test_group_literal_numbers_are_canonical_decimals(text):
    with pytest.raises(InputError):
        parse_group_literal(text)


def test_render_forms():
    assert TRIVIAL_GROUP.render() == "0"
    assert FgAbelianGroup(1, ()).render() == "Z"
    assert FgAbelianGroup(3, ()).render() == "Z^3"
    assert FgAbelianGroup(1, (2, 4)).render() == "Z ⊕ Z_2 ⊕ Z_4"


def test_parse_group_literal_roundtrip():
    for text in ("0", "Z", "Z^2", "Z_4", "Z^2 ⊕ Z_6", "Z+Z_2"):
        g = parse_group_literal(text)
        assert parse_group_literal(g.render()) == g
    with pytest.raises(InputError):
        parse_group_literal("Q")


def test_normalize_frozen_example():
    p = Presentation(2, IntMatrix.from_rows([(4, -4)], cols=2))
    assert normalize(p) == FgAbelianGroup(1, (4,))


def test_tensor_frozen_examples():
    z4 = FgAbelianGroup(0, (4,))
    z6 = FgAbelianGroup(0, (6,))
    assert tensor(z4, z6) == FgAbelianGroup(0, (2,))
    assert tor(z4, z6) == FgAbelianGroup(0, (2,))
    z = FgAbelianGroup(1, ())
    assert tensor(z, z4) == z4
    assert tor(z, z4) == TRIVIAL_GROUP


def test_torsion_chain_memory_is_linear_in_the_summands():
    # Z^500 x Z_2 is Z_2^500: _chain hands smith_invariants 500 rows
    # {i: 2}, whose Smith state stays 500 one-entry maps.  A dense
    # 500 x 500 block of them peaked at 6.35 MB; the sparse rows, 0.58 MB.
    tracemalloc.start()
    try:
        got = tensor(FgAbelianGroup(500, ()), FgAbelianGroup(0, (2,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == FgAbelianGroup(0, (2,) * 500)
    assert peak < 2 * 2**20


def test_direct_sum_renormalizes_chain():
    a = FgAbelianGroup(0, (2,))
    b = FgAbelianGroup(0, (3,))
    assert direct_sum(a, b) == FgAbelianGroup(0, (6,))
    c = FgAbelianGroup(1, (2, 4))
    d = FgAbelianGroup(0, (6,))
    out = direct_sum(c, d)
    assert out.free_rank == 1
    assert out.torsion == (2, 2, 12)


@given(groups(), groups())
@settings(max_examples=60)
def test_tensor_matches_presentation_oracle(a, b):
    pres = tensor_presentation(presentation_of(a), presentation_of(b))
    assert normalize(pres) == tensor(a, b)


@given(groups(), groups())
@settings(max_examples=60)
def test_tensor_is_commutative(a, b):
    assert tensor(a, b) == tensor(b, a)


@given(groups(), groups())
@settings(max_examples=60)
def test_tor_matches_torsion_kernel_oracle(a, b):
    expected = TRIVIAL_GROUP
    for d in a.torsion:
        expected = direct_sum(expected, d_torsion_subgroup(d, b))
    assert tor(a, b) == expected


@given(groups(), groups())
@settings(max_examples=60)
def test_tor_is_symmetric_and_kills_free(a, b):
    assert tor(a, b) == tor(b, a)
    free = FgAbelianGroup(a.free_rank, ())
    assert tor(free, b) == TRIVIAL_GROUP


def test_kron_small_example():
    a = IntMatrix.from_rows([(1, 2)], cols=2)
    b = IntMatrix.from_rows([(3,), (4,)], cols=1)
    k = kron(a, b)
    assert k.rows == 2 and k.cols == 2
    assert k.to_rows() == [[3, 6], [4, 8]]


@st.composite
def relation_rows(draw, max_dim=6):
    """(rows, width): any shape, empty included, from a pool with or without units."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    pools = (
        st.integers(-9, 9),
        st.sampled_from([0, 2, -2, 3, 4, -6, 9]),  # no unit entries
        st.sampled_from([0, 1, -1, 2]),  # mostly units
    )
    pool = draw(st.sampled_from(pools))
    return [tuple(draw(st.lists(pool, min_size=n, max_size=n))) for _ in range(m)], n


@given(relation_rows())
@settings(max_examples=200)
def test_cokernel_matches_dense_invariant_factors(case):
    rows, width = case
    dense = IntMatrix.from_rows(rows, cols=width)
    factors = invariant_factors(dense)
    want = FgAbelianGroup(width - len(factors), tuple(d for d in factors if d > 1))
    assert cokernel(rows, width) == want
    assert normalize(Presentation(width, dense)) == want


@pytest.mark.parametrize(
    "rows, width, message",
    [
        ([(0, 0, 5)], 2, "ragged"),  # was Z + Z_5
        ([(2,)], 3, "ragged"),  # was Z^2 + Z_2
        ([(1, 0), (2,)], 2, "ragged"),
        ([(True, 0)], 2, "must be ints"),  # was Z
        ([(1.5, 0)], 2, "must be ints"),  # failed on the torsion invariants
        ([(2, "3")], 2, "must be ints"),
    ],
)
def test_cokernel_takes_only_int_rows_of_its_width(rows, width, message):
    with pytest.raises(InputError, match=message):
        cokernel(rows, width)


def test_json_roundtrip():
    # the tree states every invariant as a decimal string, so it gives the
    # group back
    g = FgAbelianGroup(2, (2, 6))
    tree = g.to_json_dict()
    assert tree == {"free_rank": "2", "torsion": ["2", "6"]}
    assert FgAbelianGroup(int(tree["free_rank"]), tuple(map(int, tree["torsion"]))) == g


@st.composite
def lattice_pairs(draw):
    """(outer, inner): a Hermite lattice and the span of integer combinations
    of its rows, with sometimes one more vector, which may lie outside."""
    width = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-6, 6), min_size=width, max_size=width)
    outer = Lattice.span(draw(st.lists(vector, max_size=5)), width)
    rank = len(outer.terms)
    combos = draw(st.lists(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank), max_size=5))
    rows = [[sum(c * row[j] for c, row in zip(cs, outer.rows)) for j in range(width)] for cs in combos]
    return outer, Lattice.span(rows + draw(st.lists(vector, max_size=1)), width)


@given(lattice_pairs())
@settings(max_examples=300, deadline=None)
def test_quotient_matches_the_solve_then_cokernel_oracle(pair):
    outer, inner = pair
    try:
        want = dense_quotient(outer, inner.rows)
    except LatticeContainmentError as exc:
        with pytest.raises(LatticeContainmentError) as got:
            quotient(outer, inner.terms)
        assert got.value.witness == exc.witness
    else:
        assert quotient(outer, inner.terms) == want


def test_quotient_names_the_first_row_outside():
    outer = Lattice.span([(2, 0, 0), (0, 3, 0)], 3)
    with pytest.raises(LatticeContainmentError) as got:
        quotient(outer, Lattice.span([(2, 3, 0), (0, 1, 0), (0, 0, 1)], 3).terms)
    assert got.value.witness == (0, 1, 0)
    assert quotient(outer, ()) == FgAbelianGroup(2, ())
    assert quotient(outer, outer.terms) == TRIVIAL_GROUP
    assert quotient(outer, Lattice.span([(4, 6, 0)], 3).terms) == FgAbelianGroup(1, (2,))
