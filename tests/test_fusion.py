"""Ring and ideal lattice tests.

Frozen values: the canonical augmentation basis of the order-2 ring,
ideal power contents, power quotients, and exterior power expansions.
The product ring is checked against the order-6 ring by an exhaustive
unit-fixing relabeling search, which is an isomorphism test that never
looks at how ring_product orders its basis.  The one-pass filtration and
the sparse axiom check are compared with the constructions they
replaced, kept here as oracles.
"""

import json
from itertools import islice, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equik.abgroups import FgAbelianGroup
from equik.errors import (
    CapExceededError,
    FusionRingError,
    InputError,
    LatticeContainmentError,
    UnsupportedError,
)
from equik.fusion import (
    DEFAULT_PRODUCT_CAP,
    BasedRing,
    IdealLattice,
    augmentation_ideal,
    circle_ideal_image,
    circle_truncation,
    cyclic_ring,
    from_fusion_file,
    fusion_ring_from_json_dict,
    ideal_power,
    ideal_powers,
    lambda_expansion,
    lattice_quotient,
    multiply,
    regular_class_check,
    regular_dimension,
    ring_from_tag,
    ring_product,
)
from equik.intmat import IntMatrix, hnf

DATA = Path(__file__).parent / "data"


def s3_ring():
    return from_fusion_file(DATA / "s3_fusion.json")


def dense_table(ring):
    """fusion[i][j][k]: the multiplicity of e_k in e_i * e_j, every cell dense."""
    return tuple(
        tuple(ring.basis_mul(i, j) for j in range(ring.rank)) for i in range(ring.rank)
    )


def fusion_from_dense(labels, dims, fusion):
    """The fusion ring of a dense table, through the one sparse constructor."""
    table = tuple(
        tuple(tuple((k, n) for k, n in enumerate(cell) if n) for cell in plane)
        for plane in fusion
    )
    return BasedRing(labels, dims, table, is_fusion=True)


def test_cyclic_ring_shape():
    r = cyclic_ring(4)
    assert r.rank == 4
    assert r.labels == ("1", "chi", "chi^2", "chi^3")
    assert r.aug == (1, 1, 1, 1)
    assert r.basis_mul(1, 3) == (1, 0, 0, 0)
    with pytest.raises(InputError):
        cyclic_ring(0)


def test_fusion_ring_rejects_broken_axioms():
    r = cyclic_ring(4)
    # break one cell: chi * chi = 1 keeps dims and symmetry but not
    # associativity, since (chi chi) chi^2 != chi (chi chi^2)
    fusion = [list(map(list, plane)) for plane in dense_table(r)]
    fusion[1][1] = [1, 0, 0, 0]
    fusion[1][1] = tuple(fusion[1][1])
    broken = tuple(
        tuple(tuple(cell) for cell in plane) for plane in fusion
    )
    with pytest.raises(FusionRingError) as err:
        fusion_from_dense(r.labels, r.aug, broken)
    assert err.value.axiom == "associativity"


def test_fusion_ring_rejects_bad_dimension_map():
    r = cyclic_ring(2)
    dense = dense_table(r)
    fusion = ((dense[0][0], dense[0][1]), (dense[1][0], (1, 1)))
    with pytest.raises(FusionRingError) as err:
        fusion_from_dense(r.labels, r.aug, fusion)
    assert err.value.axiom == "dimension homomorphism"


def test_s3_fixture_loads_and_multiplies():
    r = s3_ring()
    assert r.rank == 3
    assert r.aug == (1, 1, 2)
    v_squared = multiply(r, (0, 0, 1), (0, 0, 1))
    assert v_squared.coefficients == (1, 1, 1)
    assert r.render_element((1, 1, 1)) == "1 + sgn + V"


def test_fusion_file_rejects_bad_tables(tmp_path):
    obj = json.loads((DATA / "s3_fusion.json").read_text())
    obj["fusion"][2][2] = [[0, 1], [2, 1]]  # V*V = 1 + V breaks dims
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(FusionRingError) as err:
        from_fusion_file(bad)
    assert err.value.axiom == "dimension homomorphism"
    with pytest.raises(InputError):
        fusion_ring_from_json_dict({"labels": ["1"], "dims": ["1"]})


def relabelings_match(small, big):
    """Is there a unit-fixing bijection of bases matching the tables?"""
    r = small.rank
    if r != big.rank:
        return False
    for perm in permutations(range(1, r)):
        to_big = (0,) + perm
        ok = True
        for i in range(r):
            for j in range(r):
                cell = small.basis_mul(i, j)
                image = [0] * r
                for k, mult in enumerate(cell):
                    image[to_big[k]] = mult
                if tuple(image) != big.basis_mul(to_big[i], to_big[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_product_of_z2_z3_is_z6():
    prod = ring_product(cyclic_ring(2), cyclic_ring(3))
    assert relabelings_match(prod, cyclic_ring(6))
    assert not relabelings_match(ring_product(cyclic_ring(2), cyclic_ring(2)),
                                 cyclic_ring(4))


def test_augmentation_basis_of_z2_is_canonical():
    aug = augmentation_ideal(cyclic_ring(2))
    assert aug.basis.to_rows() == [[1, -1]]


def test_ideal_power_contents_for_z2():
    r = cyclic_ring(2)
    for m in range(1, 7):
        lat = ideal_power(r, m)
        assert lat.basis.to_rows() == [[2 ** (m - 1), -(2 ** (m - 1))]]
        assert lat.content() == 2 ** (m - 1)


def test_ideal_power_zero_is_full_ring():
    r = cyclic_ring(5)
    lat = ideal_power(r, 0)
    assert lat.rank == 5
    assert lat.basis.to_rows() == IntMatrix.identity(5).to_rows()


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_power_quotients_are_cyclic_of_order_p(p, m):
    r = cyclic_ring(p)
    q = lattice_quotient(r, ideal_power(r, m), ideal_power(r, m + 1))
    assert q == FgAbelianGroup(0, (p,))


def test_unit_quotient_is_z_for_all_builtins():
    rings = [
        cyclic_ring(2),
        cyclic_ring(5),
        ring_from_tag("z2xz3"),
        circle_truncation(4),
        s3_ring(),
        ring_product(circle_truncation(3), cyclic_ring(2)),
    ]
    for r in rings:
        q = lattice_quotient(r, ideal_power(r, 0), ideal_power(r, 1))
        assert q == FgAbelianGroup(1, ()), r


@given(st.integers(2, 7), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_ideal_powers_are_nested(n, m):
    r = cyclic_ring(n)
    outer = ideal_power(r, m)
    inner = ideal_power(r, m + 1)
    for row in inner.rows():
        assert outer.contains(row)


def test_ideal_power_cap():
    with pytest.raises(CapExceededError):
        ideal_power(cyclic_ring(7), 7, cap=10)


def test_ideal_lattice_rejects_non_ideal():
    r = cyclic_ring(2)
    with pytest.raises(LatticeContainmentError) as err:
        IdealLattice.from_rows(r, [(1, 0)])
    assert err.value.witness is not None


def test_lattice_quotient_requires_containment():
    r = cyclic_ring(3)
    with pytest.raises(LatticeContainmentError):
        lattice_quotient(r, ideal_power(r, 2), ideal_power(r, 1))


def test_lambda_expansion_frozen_values():
    assert lambda_expansion(3) == (-3, 3)
    assert lambda_expansion(5) == (-5, 10, -10, 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lambda_expansion_first_coefficient(p):
    coeffs = lambda_expansion(p)
    assert len(coeffs) == p - 1
    assert coeffs[0] == -p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lambda_expansion_back_substitutes(p):
    r = cyclic_ring(p)
    # lam = 1 - chi as a coefficient vector
    lam = tuple(
        (1 if i == 0 else 0) - (1 if i == 1 else 0) for i in range(p)
    )
    powers = [r.one_vec()]
    for _ in range(p):
        powers.append(multiply(r, powers[-1], lam).coefficients)
    coeffs = lambda_expansion(p)
    acc = (0,) * p
    for j, c in enumerate(coeffs, start=1):
        acc = tuple(a + c * b for a, b in zip(acc, powers[j]))
    assert acc == powers[p]


def test_lambda_expansion_rejects_bad_orders():
    with pytest.raises(UnsupportedError):
        lambda_expansion(4)
    with pytest.raises(InputError):
        lambda_expansion(1)


def test_regular_class_annihilated_for_small_groups():
    rings = [cyclic_ring(n) for n in range(2, 8)]
    rings.append(ring_from_tag("z2xz3"))
    rings.append(s3_ring())
    for r in rings:
        element, annihilated = regular_class_check(r)
        assert annihilated, r.labels
        assert element.coefficients == r.aug
    assert regular_dimension(s3_ring()) == 6
    assert regular_dimension(cyclic_ring(6)) == 6


def test_circle_truncation_unit_class_inverse():
    c = circle_truncation(5)
    t = (1, -1, 0, 0, 0)  # t = 1 - lam, the invertible generator
    inv = (1,) * 5  # (1 - lam)^-1 = 1 + lam + ... + lam^4
    product = multiply(c, t, inv)
    assert product.coefficients == c.one_vec()
    assert not c.is_fusion


def test_circle_ideal_image_matches_power():
    for n in (1, 3, 5):
        c = circle_truncation(n)
        for j in range(n + 2):
            assert circle_ideal_image(n, j).basis.entries == ideal_power(
                c, j
            ).basis.entries


def test_ring_from_tag():
    assert ring_from_tag("z4").rank == 4
    assert ring_from_tag("z2xz3").rank == 6
    assert ring_from_tag("z2xz2xz2").rank == 8
    with pytest.raises(UnsupportedError):
        ring_from_tag("d8")


def test_mixed_product_ring_protocol():
    mixed = ring_product(circle_truncation(3), cyclic_ring(2))
    assert mixed.rank == 6
    assert len(mixed.labels) == 6
    one = mixed.one_vec()
    some = tuple(1 for _ in range(6))
    assert multiply(mixed, one, some).coefficients == some
    assert len(mixed.aug) == 6


def test_ring_equality_follows_the_constructor():
    # circle:1 and z1 have the same table and augmentation; only the
    # constructor's is_fusion tells them apart.
    assert circle_truncation(1) != cyclic_ring(1)
    assert cyclic_ring(1).is_fusion and not circle_truncation(1).is_fusion
    assert ring_from_tag("z2xz3") == ring_product(cyclic_ring(2), cyclic_ring(3))
    assert ring_from_tag("z2xz3").is_fusion
    mixed = ring_product(circle_truncation(3), cyclic_ring(2))
    assert mixed == ring_product(circle_truncation(3), cyclic_ring(2))
    assert not mixed.is_fusion
    assert ring_product(cyclic_ring(2), circle_truncation(1)) != ring_product(
        cyclic_ring(2), cyclic_ring(1)
    )


@pytest.mark.parametrize(
    "cell",
    [((3, 1),), ((-1, 1),), ((2, 1), (1, 1)), ((2, 1), (2, 1)), ((2, 0),)],
    ids=["index past rank", "negative index", "unsorted", "repeated", "zero"],
)
def test_malformed_sparse_cell_is_a_shape_error(cell):
    r = cyclic_ring(3)
    table = [list(row) for row in r.table]
    table[1][1] = cell
    with pytest.raises(FusionRingError) as err:
        BasedRing(r.labels, r.aug, tuple(map(tuple, table)), is_fusion=True)
    assert (err.value.axiom, err.value.indices) == ("shape", (1, 1))


def oracle_basis_mul(factors, i, j):
    """Dense e_i * e_j from the factors' own dense rows (Kronecker order)."""
    if len(factors) == 1:
        return factors[0].basis_mul(i, j)
    left, right = factors
    (i1, i2), (j1, j2) = divmod(i, right.rank), divmod(j, right.rank)
    return tuple(a * b for a in left.basis_mul(i1, j1) for b in right.basis_mul(i2, j2))


def dense_mul_vec(factors, a, b):
    """The product by a triple loop over dense basis_mul rows."""
    r = len(a)
    out = [0] * r
    for i in range(r):
        for j in range(r):
            for k, n in enumerate(oracle_basis_mul(factors, i, j)):
                out[k] += a[i] * b[j] * n
    return tuple(out)


def regular_class_ring():
    """Span of 1 and the regular class x of the order-2 group: x * x = 2x."""
    return fusion_ring_from_json_dict(
        {
            "labels": ["1", "x"],
            "dims": ["1", "2"],
            "fusion": [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[1, 2]]]],
        }
    )


MUL_RINGS = {
    **{f"z{n}": lambda n=n: (cyclic_ring(n),) for n in (1, 2, 3, 5)},
    "s3": lambda: (s3_ring(),),
    **{f"circle:{n}": lambda n=n: (circle_truncation(n),) for n in (1, 2, 4)},
    "z2 x z3": lambda: (cyclic_ring(2), cyclic_ring(3)),
    "s3 x z2": lambda: (s3_ring(), cyclic_ring(2)),
    "circle:3 x z2": lambda: (circle_truncation(3), cyclic_ring(2)),
    "z3 x circle:2": lambda: (cyclic_ring(3), circle_truncation(2)),
    "circle:2 x s3": lambda: (circle_truncation(2), s3_ring()),
    # multiplicities above 1 on both sides of a product
    "reg x reg": lambda: (regular_class_ring(), regular_class_ring()),
    "circle:2 x reg": lambda: (circle_truncation(2), regular_class_ring()),
}


@pytest.mark.parametrize("name", sorted(MUL_RINGS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_sparse_mul_vec_matches_dense_oracle(name, data):
    factors = MUL_RINGS[name]()
    ring = factors[0] if len(factors) == 1 else ring_product(*factors)
    vector = st.lists(st.integers(-4, 4), min_size=ring.rank, max_size=ring.rank)
    a, b = tuple(data.draw(vector)), tuple(data.draw(vector))
    assert ring.mul_vec(a, b) == dense_mul_vec(factors, a, b)


def per_power_oracle(ring, n, cap):
    """I^n rebuilt on its own: products of generators, then hnf(...).H.

    Raises CapExceededError when more than cap products would be formed.
    """
    if n == 0:
        return [tuple(int(k == i) for k in range(ring.rank)) for i in range(ring.rank)]
    gens = augmentation_ideal(ring).rows()
    basis, produced = gens, 0
    for _ in range(n - 1):
        if not basis:
            break
        produced += len(basis) * len(gens)
        if produced > cap:
            raise CapExceededError("oracle product cap")
        products = [ring.mul_vec(b, g) for b in basis for g in gens]
        res = hnf(IntMatrix.from_rows(products, cols=ring.rank))
        basis = [res.H.row(i) for i in range(res.rank)]
    return basis


FILTRATION_RINGS = {
    **{f"z{n}": lambda n=n: cyclic_ring(n) for n in range(2, 13)},
    "z2xz3": lambda: ring_from_tag("z2xz3"),
    "z3xz3": lambda: ring_from_tag("z3xz3"),
    **{f"circle:{n}": lambda n=n: circle_truncation(n) for n in range(1, 6)},
    "circle:3 x z2": lambda: ring_product(circle_truncation(3), cyclic_ring(2)),
}


@pytest.mark.parametrize("name", sorted(FILTRATION_RINGS))
@given(cap=st.one_of(st.integers(0, 400), st.just(DEFAULT_PRODUCT_CAP)))
@settings(max_examples=8, deadline=None)
def test_ideal_powers_match_per_power_oracle(name, cap):
    ring = FILTRATION_RINGS[name]()
    powers = ideal_powers(ring, cap)
    for n in range(7):
        try:
            want = per_power_oracle(ring, n, cap)
        except CapExceededError:
            with pytest.raises(CapExceededError):
                next(powers)
            with pytest.raises(CapExceededError):
                ideal_power(ring, n, cap)
            return
        assert next(powers).rows() == want
        assert ideal_power(ring, n, cap).rows() == want


@given(
    name=st.sampled_from(sorted(FILTRATION_RINGS)),
    n=st.integers(0, 12),
    cap=st.integers(0, 60),
)
@example(name="z2", n=5, cap=4)  # exactly the products I^5 needs
@example(name="z3", n=4, cap=12)  # exactly the products I^4 needs
@example(name="z3", n=4, cap=11)  # one product short
@settings(max_examples=200, deadline=None)
def test_capped_ideal_power_matches_per_power_oracle(name, n, cap):
    # Small caps and powers reach both the early refusal, once the ranks
    # have stopped falling, and the refusal in the middle of a level.
    ring = FILTRATION_RINGS[name]()
    try:
        want = per_power_oracle(ring, n, cap)
    except CapExceededError:
        message = rf"^ideal power product cap exceeded \({cap} vectors\)$"
        with pytest.raises(CapExceededError, match=message):
            ideal_power(ring, n, cap)
        return
    assert ideal_power(ring, n, cap).rows() == want


def test_ideal_powers_stay_zero_once_zero():
    powers = list(islice(ideal_powers(circle_truncation(3)), 7))
    assert [p.rank for p in powers] == [3, 2, 1, 0, 0, 0, 0]
    assert all(p == IdealLattice.zero(circle_truncation(3)) for p in powers[3:])


@pytest.mark.parametrize(
    "ring",
    [
        pytest.param(
            cyclic_ring(1), id="FusionRing(labels=('1',), dims=(1,), fusion=(((1,),),))"
        ),
        pytest.param(circle_truncation(2), id="CircleRingTruncation(order=2)"),
    ],
)
def test_ideal_power_stops_at_first_zero_power(ring):
    # z1's augmentation ideal is zero and circle:2's squares to zero, so a
    # power of 10^12 must come back at once as the zero lattice.
    assert ideal_power(ring, 10**12) == IdealLattice.zero(ring)


def test_ideal_power_builds_only_i_and_i_to_the_n(monkeypatch):
    built = []
    post_init = IdealLattice.__post_init__

    def counting(self):
        built.append(self.rank)
        post_init(self)

    monkeypatch.setattr(IdealLattice, "__post_init__", counting)
    ring = cyclic_ring(5)
    lat = ideal_power(ring, 4)
    assert built == [4, 4]  # I, then I^4 (I^0 and I^2, I^3 stay rows)
    assert lat.rows() == per_power_oracle(ring, 4, DEFAULT_PRODUCT_CAP)


def dense_fusion_check(labels, dims, fusion):
    """The axiom check with dense r-length loops, as it was before the
    sparse one; raises FusionRingError at the first failed axiom."""
    r = len(labels)
    if r == 0:
        raise FusionRingError("rank", ())
    if len(dims) != r or len(fusion) != r:
        raise FusionRingError("shape", ())
    if dims[0] != 1:
        raise FusionRingError("unit dimension", (0,))
    for i, d in enumerate(dims):
        if d < 1:
            raise FusionRingError("positive dimensions", (i,))
    for i in range(r):
        if len(fusion[i]) != r:
            raise FusionRingError("shape", (i,))
        for j in range(r):
            if len(fusion[i][j]) != r:
                raise FusionRingError("shape", (i, j))
            for k in range(r):
                if fusion[i][j][k] < 0:
                    raise FusionRingError("nonnegativity", (i, j, k))
    for j in range(r):
        ej = tuple(1 if k == j else 0 for k in range(r))
        if fusion[0][j] != ej:
            raise FusionRingError("unit law", (0, j))
        if fusion[j][0] != ej:
            raise FusionRingError("unit law", (j, 0))
    for i in range(r):
        for j in range(i, r):
            if fusion[i][j] != fusion[j][i]:
                raise FusionRingError("commutativity", (i, j))
    for i in range(r):
        for j in range(r):
            if sum(fusion[i][j][k] * dims[k] for k in range(r)) != dims[i] * dims[j]:
                raise FusionRingError("dimension homomorphism", (i, j))
    for i in range(r):
        for j in range(r):
            for k in range(r):
                lhs = [0] * r
                rhs = [0] * r
                for m in range(r):
                    for l in range(r):
                        lhs[l] += fusion[i][j][m] * fusion[m][k][l]
                        rhs[l] += fusion[j][k][m] * fusion[i][m][l]
                if lhs != rhs:
                    l = next(x for x in range(r) if lhs[x] != rhs[x])
                    raise FusionRingError("associativity", (i, j, k, l))


@st.composite
def perturbed_tables(draw):
    """(labels, dims, fusion) of a small fusion ring with a few cells edited.

    Moving one unit of multiplicity between two outputs of a symmetric
    pair of cells keeps nonnegativity, the unit law (away from index 0),
    commutativity and, when the two outputs have equal dimension, the
    dimension map, so about a quarter of the tables reach the
    associativity check and fail there.
    """
    name = draw(st.sampled_from(["z1", "z2", "z3", "z4", "z5", "z2xz2", "z2xz3", "s3"]))
    ring = s3_ring() if name == "s3" else ring_from_tag(name)
    r = ring.rank
    dims = list(ring.aug)
    fusion = [[list(cell) for cell in plane] for plane in dense_table(ring)]
    index = st.integers(0, r - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["move", "move", "move", "bump", "dim"]))
        if kind == "dim":
            dims[draw(index)] += draw(st.integers(-1, 1))
            continue
        # edits mostly avoid the unit row, which the unit law pins down
        low = min(1, r - 1) if draw(st.integers(0, 3)) else 0
        i, j = draw(st.integers(low, r - 1)), draw(index)
        cells = {(i, j), (j, i)} if draw(st.integers(0, 3)) else {(i, j)}
        if kind == "move":
            held = [k for k, n in enumerate(fusion[i][j]) if n > 0]
            k, k2 = draw(st.sampled_from(held or [0])), draw(index)
            for a, b in cells:
                fusion[a][b][k] -= 1
                fusion[a][b][k2] += 1
        else:
            k, delta = draw(index), draw(st.integers(-2, 2))
            for a, b in cells:
                fusion[a][b][k] += delta
    table = tuple(tuple(tuple(cell) for cell in plane) for plane in fusion)
    return ring.labels, tuple(dims), table


def axiom_outcome(check, table):
    try:
        check(*table)
    except FusionRingError as err:
        return err.axiom, err.indices
    return None


@given(perturbed_tables())
@settings(max_examples=300, deadline=None)
def test_sparse_axiom_check_agrees_with_dense_check(table):
    assert axiom_outcome(fusion_from_dense, table) == axiom_outcome(dense_fusion_check, table)


def test_sparse_axiom_check_names_the_same_associativity_witness():
    r = cyclic_ring(5)
    fusion = [[list(cell) for cell in plane] for plane in dense_table(r)]
    for a, b in ((1, 2), (2, 1)):  # chi * chi^2 = chi^4 instead of chi^3
        fusion[a][b] = [0, 0, 0, 0, 1]
    table = r.labels, r.aug, tuple(tuple(tuple(c) for c in p) for p in fusion)
    got = axiom_outcome(fusion_from_dense, table)
    assert got == axiom_outcome(dense_fusion_check, table)
    assert got[0] == "associativity"
