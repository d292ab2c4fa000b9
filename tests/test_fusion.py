"""Ring and ideal lattice tests.

Frozen values: the canonical augmentation basis of the order-2 ring,
ideal power contents, power quotients, and exterior power expansions.
The product ring is checked against the order-6 ring by an exhaustive
unit-fixing relabeling search, which is an isomorphism test that never
looks at how ring_product orders its basis.  The one-pass filtration and
the sparse axiom check are compared with the constructions they
replaced, kept here as oracles.
"""

import functools
import json
from itertools import islice, permutations
from math import comb, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equik.errors as errors
import equik.fusion as fusion
from equik.abgroups import FgAbelianGroup
from equik.errors import (
    CapExceededError,
    EquikError,
    FusionRingError,
    InputError,
    LatticeContainmentError,
    UnsupportedError,
)
from equik.fusion import (
    BasedRing,
    IdealLattice,
    RingElement,
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
from equik.intmat import (
    IntMatrix,
    Lattice,
    hermite_rows,
    hermite_solve,
    hermite_terms,
    hnf,
    kernel_basis,
    term_product,
    xgcd,
)
from dense_algebra import basis_mul, dense_quotient, one_vec

DATA = Path(__file__).parent / "data"


def s3_ring():
    return from_fusion_file(DATA / "s3_fusion.json")


def dense_table(ring):
    """fusion[i][j][k]: the multiplicity of e_k in e_i * e_j, every cell dense."""
    return tuple(
        tuple(basis_mul(ring, i, j) for j in range(ring.rank)) for i in range(ring.rank)
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
    assert basis_mul(r, 1, 3) == (1, 0, 0, 0)
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
                cell = basis_mul(small, i, j)
                image = [0] * r
                for k, mult in enumerate(cell):
                    image[to_big[k]] = mult
                if tuple(image) != basis_mul(big, to_big[i], to_big[j]):
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
    assert aug.basis == ((1, -1),)


def test_ideal_power_contents_for_z2():
    r = cyclic_ring(2)
    for m in range(1, 7):
        lat = ideal_power(r, m)
        assert lat.basis == ((2 ** (m - 1), -(2 ** (m - 1))),)
        assert lat.content() == 2 ** (m - 1)


def test_ideal_power_zero_is_full_ring():
    r = cyclic_ring(5)
    lat = ideal_power(r, 0)
    assert lat.rank == 5
    assert lat.basis == tuple(tuple(IntMatrix.identity(5).row(i)) for i in range(5))


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


def budget(units):
    """errors.WORK_BUDGET set to units inside the with block."""
    return mock.patch.object(errors, "WORK_BUDGET", units)


def test_ideal_power_cap():
    ring = cyclic_ring(7)  # 16 * 6 * 1 * 7 = 672 units a level
    with budget(3 * 672):
        ideal_power(ring, 4)
        with pytest.raises(CapExceededError):
            ideal_power(ring, 5)


def test_ideal_lattice_rejects_non_ideal():
    r = cyclic_ring(2)
    with pytest.raises(LatticeContainmentError) as err:
        IdealLattice.from_rows(r, [(1, 0)])
    assert err.value.witness is not None


@pytest.mark.parametrize(
    "rows",
    [((1, -1, 0),), ((0, 1), (1, 0)), ((2, -2), (0, 0)), ((1, 3), (0, 2)), ((-1, 1),)],
    ids=["wide", "unordered", "zero row", "unreduced", "negative pivot"],
)
def test_ideal_lattice_rejects_rows_not_in_hermite_form(rows):
    with pytest.raises(InputError):
        IdealLattice(cyclic_ring(2), rows)


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
    powers = [one_vec(r)]
    for _ in range(p):
        powers.append(multiply(r, powers[-1], lam).coefficients)
    coeffs = lambda_expansion(p)
    acc = (0,) * p
    for j, c in enumerate(coeffs, start=1):
        acc = tuple(a + c * b for a, b in zip(acc, powers[j]))
    assert acc == powers[p]


def hnf_lambda_expansion(p):
    """lam^p in the basis lam, ..., lam^(p-1), by an HNF solve: Hermite
    form with its transform, back-substitution, then the transform."""
    ring = cyclic_ring(p)
    lam = tuple(1 if k == 0 else (-1 if k == 1 else 0) for k in range(p))
    powers = [lam]
    for _ in range(p - 1):
        powers.append(ring.mul_vec(powers[-1], lam))
    res = hnf(IntMatrix.from_rows(powers[: p - 1], cols=p))
    coords = hermite_solve([res.H.row(i) for i in range(res.rank)], powers[p - 1])
    assert coords is not None and len(coords) == p - 1
    t = res.transform
    return tuple(sum(c * t.entry(i, j) for i, c in enumerate(coords)) for j in range(p - 1))


@pytest.mark.parametrize("p", range(3, 32, 2))
def test_lambda_expansion_matches_hnf_solve(p):
    assert lambda_expansion(p) == hnf_lambda_expansion(p)


def ring_lambda_expansion(p):
    """(coefficients, powers lam, ..., lam^p as maps) as lambda_expansion
    found them before it formed the powers in Z[chi]/(chi^p - 1) itself:
    in the built and checked cyclic_ring(p), by _row_times."""
    table = cyclic_ring(p).table
    lam = ((0, 1), (1, -1))
    powers = [dict(lam)]
    for _ in range(p - 1):
        powers.append(fusion._row_times(table, powers[-1].items(), lam))
    n = tuple([(-1) ** j * comb(p, j) for j in range(1, p)])
    if term_product(enumerate(n), powers) != powers[p - 1]:
        raise EquikError(f"the binomial expansion does not reproduce lam^{p}")
    return n, powers


@pytest.mark.parametrize("p", range(3, 62, 2))
def test_lambda_expansion_matches_the_ring_path(p, monkeypatch):
    # The binomial check is the last term_product call; its rows are the
    # powers lam, ..., lam^p.
    calls = []
    real = fusion.term_product
    monkeypatch.setattr(
        fusion, "term_product", lambda terms, rows: calls.append(list(rows)) or real(terms, rows)
    )
    want, powers = ring_lambda_expansion(p)
    assert lambda_expansion(p) == want
    assert calls[-1] == powers


def test_lambda_expansion_checks_the_binomial_sum(monkeypatch):
    monkeypatch.setattr(fusion, "comb", lambda p, j: comb(p, j) + (j == 2))
    with pytest.raises(EquikError, match="does not reproduce lam"):
        lambda_expansion(5)


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


# Character rings of finite groups: every tag family the suite builds, the
# cyclic rings of the filtration tests, and S3 alone and with z3.
GROUP_RING_TAGS = (
    "z2", "z3", "z4", "z6", "z8", "z24", "z2xz2", "z2xz3", "z3xz3", "z2xz2xz2", "z2xz3xz5",
)


@pytest.mark.parametrize(
    "name",
    GROUP_RING_TAGS + ("z5", "z7", "z9", "z10", "z11", "z12", "s3", "s3 x z3"),
)
def test_regular_dimension_kills_each_power_quotient(name):
    # For x in I^n, with m = sum d_i^2 and reg the regular class,
    # m x = (m - reg) x + reg x, and reg x = aug(x) reg = 0 while
    # m - reg lies in I: so m I^n lies in I^(n+1).  Over Q, I is a sum of
    # the factors of the semisimple ring R (x) Q, so I^n has rank r - 1.
    if name == "s3":
        ring = s3_ring()
    elif name == "s3 x z3":
        ring = ring_product(s3_ring(), cyclic_ring(3))
    else:
        ring = ring_from_tag(name)
    m = regular_dimension(ring)
    powers = list(islice(ideal_powers(ring, last=6), 7))
    for n in range(1, 6):
        power, above = powers[n], powers[n + 1]
        assert power.rank == ring.rank - 1, n
        for row in power.basis:
            assert above.contains(tuple(m * e for e in row)), n
    # A fusion ring that is no group's character ring may fail: in the
    # span of 1 and the regular class x of the order-2 group, m = 5 and
    # I^n / I^(n+1) is Z_2.
    reg = regular_class_ring()
    quotient = lattice_quotient(reg, ideal_power(reg, 2), ideal_power(reg, 3))
    assert quotient == FgAbelianGroup(0, (2,))


def test_ring_vector_inputs_must_be_ints():
    ring = cyclic_ring(2)
    for a in ((1.5, 0), (True, 0), ("1", 0)):
        with pytest.raises(InputError):
            multiply(ring, a, (0, 1))
        with pytest.raises(InputError):
            multiply(ring, (0, 1), a)
        with pytest.raises(InputError):
            RingElement(a)


def test_ideal_lattice_membership_takes_only_int_vectors():
    aug = augmentation_ideal(cyclic_ring(2))
    for v in ((-1.7, 1), (-1, 1.0), (True, 0), ("-1", 1)):
        with pytest.raises(InputError):
            aug.contains(v)
        with pytest.raises(InputError):
            aug.solve(v)
    assert aug.contains((-1, 1)) and aug.solve((-2, 2)) == [-2]


def test_ideal_lattice_membership_checks_entries_once():
    # A RingElement is unwrapped (its constructor checked it); any other
    # vector goes to Lattice.solve, whose one check names the entries.
    aug = augmentation_ideal(cyclic_ring(2))
    assert aug.contains(RingElement((-1, 1))) and aug.solve(RingElement((-2, 2))) == [-2]
    assert not aug.contains(RingElement((1, 0)))
    assert aug.contains([-1, 1])
    for v in ((-1.7, 1), (True, 0)):
        with pytest.raises(InputError, match="^vector entries must be ints$"):
            aug.contains(v)
        with pytest.raises(InputError, match="^vector entries must be ints$"):
            aug.solve(v)


def test_ideal_lattice_membership_takes_only_vectors_of_the_ring_rank():
    aug = augmentation_ideal(cyclic_ring(3))
    for v in ((1, -1), (1, -1, 0, 0)):  # both used to be members
        with pytest.raises(InputError, match="vector length"):
            aug.contains(v)
        with pytest.raises(InputError, match="vector length"):
            aug.solve(v)
    assert aug.contains((1, -1, 0)) and not aug.contains((1, 0, 0))


def test_ideal_lattice_from_rows_takes_only_int_vectors():
    ring = cyclic_ring(2)
    for v in ((-1.7, 1), (-1, 1.0), (True, 1), ("-1", 1)):
        with pytest.raises(InputError, match="must be ints"):
            IdealLattice.from_rows(ring, [v])
    assert IdealLattice.from_rows(ring, [(-1, 1)]) == augmentation_ideal(ring)


def test_circle_truncation_unit_class_inverse():
    c = circle_truncation(5)
    t = (1, -1, 0, 0, 0)  # t = 1 - lam, the invertible generator
    inv = (1,) * 5  # (1 - lam)^-1 = 1 + lam + ... + lam^4
    product = multiply(c, t, inv)
    assert product.coefficients == one_vec(c)
    assert not c.is_fusion


def test_circle_ideal_image_matches_power():
    for n in (1, 3, 5):
        c = circle_truncation(n)
        for j in range(n + 2):
            assert circle_ideal_image(n, j).basis == ideal_power(c, j).basis


def test_ring_from_tag():
    assert ring_from_tag("z4").rank == 4
    assert ring_from_tag("z2xz3").rank == 6
    assert ring_from_tag("z2xz2xz2").rank == 8
    with pytest.raises(UnsupportedError):
        ring_from_tag("d8")


# One tag per ring: z<d>, d >= 1 in decimal, parts joined by x.  A
# malformed z... part is bad input; a part not starting with z, which
# now includes Z3 and " z3", is an unknown ring.
@pytest.mark.parametrize(
    "tag", ["z+3", "z 3", "z3_0", "z03", "z0", "z3 ", "z", "z2xz03", "z3xz+2", "z٣"]
)
def test_ring_from_tag_rejects_non_canonical_cyclic_parts(tag):
    with pytest.raises(InputError):
        ring_from_tag(tag)


@pytest.mark.parametrize("tag", ["Z3", " z3", "q9", "z2xZ3", "z2x", "", "x"])
def test_ring_from_tag_leaves_other_tags_unsupported(tag):
    with pytest.raises(UnsupportedError):
        ring_from_tag(tag)


def test_mixed_product_ring_protocol():
    mixed = ring_product(circle_truncation(3), cyclic_ring(2))
    assert mixed.rank == 6
    assert len(mixed.labels) == 6
    one = one_vec(mixed)
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
    [
        ((3, 1),),
        ((-1, 1),),
        ((2, 1), (1, 1)),
        ((2, 1), (2, 1)),
        ((2, 0),),
        ((2, 1.0),),
        ((2, True),),
        ((2.0, 1),),
    ],
    ids=[
        "index past rank",
        "negative index",
        "unsorted",
        "repeated",
        "zero",
        "float multiplicity",
        "bool multiplicity",
        "float index",
    ],
)
def test_malformed_sparse_cell_is_a_shape_error(cell):
    r = cyclic_ring(3)
    table = [list(row) for row in r.table]
    table[1][1] = cell
    with pytest.raises(FusionRingError) as err:
        BasedRing(r.labels, r.aug, tuple(map(tuple, table)), is_fusion=True)
    assert (err.value.axiom, err.value.indices) == ("shape", (1, 1))


@pytest.mark.parametrize("is_fusion", [True, False])
@pytest.mark.parametrize("aug", [(True, True), (1, 1.0), (1.0, 1)], ids=["bools", "float", "float unit"])
def test_ring_dims_must_be_ints(aug, is_fusion):
    # (1, 1.0) used to pass every axiom and fail later, inside the
    # ideal-power walk, with an AttributeError.
    r = cyclic_ring(2)
    with pytest.raises(FusionRingError) as err:
        BasedRing(r.labels, aug, r.table, is_fusion)
    assert (err.value.axiom, err.value.indices) == ("shape", ())


def oracle_basis_mul(factors, i, j):
    """Dense e_i * e_j from the factors' own dense rows (Kronecker order)."""
    if len(factors) == 1:
        return basis_mul(factors[0], i, j)
    left, right = factors
    (i1, i2), (j1, j2) = divmod(i, right.rank), divmod(j, right.rank)
    return tuple(a * b for a in basis_mul(left, i1, j1) for b in basis_mul(right, i2, j2))


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


def ring_of(factors):
    return factors[0] if len(factors) == 1 else ring_product(*factors)


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
    ring = ring_of(factors)
    vector = st.lists(st.integers(-4, 4), min_size=ring.rank, max_size=ring.rank)
    a, b = tuple(data.draw(vector)), tuple(data.draw(vector))
    assert ring.mul_vec(a, b) == dense_mul_vec(factors, a, b)


def kernel_augmentation_ideal(ring):
    """The augmentation ideal as the kernel of the aug column, by
    kernel_basis: the construction augmentation_ideal replaced."""
    kernel = kernel_basis(IntMatrix(ring.rank, 1, tuple(ring.aug)))
    return IdealLattice(ring, tuple(kernel.row(i) for i in range(kernel.rows)))


def pivot_product(rows):
    """The product of the pivots, the first nonzero entries, of Hermite rows."""
    return prod(next(e for e in row if e) for row in rows)


def walk_units(ring, rows):
    """The work budget's charge for forming the next ideal power from the
    Hermite rows of one: 16 per entry of the rank * |S| products, times
    the 64-bit words of the product of the pivots."""
    words = 1 + pivot_product(rows).bit_length() // 64
    return 16 * len(rows) * len(ring.generators) * ring.rank * words


def per_power_oracle(ring, n, budget=None):
    """I^n rebuilt on its own: products of generators, then hnf(...).H.

    The generators come from kernel_augmentation_ideal, so the oracle
    shares no code with augmentation_ideal.  Raises CapExceededError when
    the walk_units of the levels up to I^n pass the budget.
    """
    if n == 0:
        return [tuple(int(k == i) for k in range(ring.rank)) for i in range(ring.rank)]
    gens = kernel_augmentation_ideal(ring).rows()
    basis, spent = gens, 0
    for _ in range(n - 1):
        if not basis:
            break
        spent += walk_units(ring, basis)
        if budget is not None and spent > budget:
            raise CapExceededError("oracle over the budget")
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


AUGMENTATION_RINGS = {
    **FILTRATION_RINGS,
    "s3": s3_ring,
    "reg": regular_class_ring,
    "s3 x z3": lambda: ring_product(s3_ring(), cyclic_ring(3)),
    "circle:9 x z3xz3": lambda: ring_product(circle_truncation(9), ring_from_tag("z3xz3")),
}


@pytest.mark.parametrize("name", sorted(AUGMENTATION_RINGS))
def test_augmentation_ideal_matches_kernel_basis_oracle(name):
    ring = AUGMENTATION_RINGS[name]()
    got = augmentation_ideal(ring)
    assert got.basis == kernel_augmentation_ideal(ring).basis
    assert got.rank == ring.rank - 1


def walk_refusal(ring):
    """The message of a refused ideal power walk on ring, as a pattern."""
    return (
        rf"^work budget exceeded: the ideal power walk of a rank-{ring.rank} ring "
        rf"needs \d+ units, over \d+$"
    )


@pytest.mark.parametrize("name", sorted(AUGMENTATION_RINGS))
def test_walk_costs_never_fall_once_ranks_stop_falling(name):
    # The early refusal rests on this: from the first power whose rank
    # equals the one before, ranks stay and the pivot product never falls.
    ring = AUGMENTATION_RINGS[name]()
    top = 4 if ring.rank > 30 else 8
    powers = [p.rows() for p in islice(ideal_powers(ring), 1, top + 1)]
    stable = next((k for k in range(1, top) if len(powers[k]) == len(powers[k - 1])), top)
    for before, after in zip(powers[stable - 1 :], powers[stable:]):
        assert len(after) == len(before)
        assert pivot_product(after) >= pivot_product(before)


@pytest.mark.parametrize("name", sorted(FILTRATION_RINGS))
@given(units=st.one_of(st.integers(0, 20000), st.just(errors.WORK_BUDGET)))
@settings(max_examples=8, deadline=None)
def test_ideal_powers_match_per_power_oracle(name, units):
    ring = FILTRATION_RINGS[name]()
    with budget(units):
        powers = ideal_powers(ring)
        for n in range(7):
            try:
                want = per_power_oracle(ring, n, units)
            except CapExceededError:
                with pytest.raises(CapExceededError):
                    next(powers)
                with pytest.raises(CapExceededError):
                    ideal_power(ring, n)
                return
            assert next(powers).rows() == want
            assert ideal_power(ring, n).rows() == want


@given(
    name=st.sampled_from(sorted(FILTRATION_RINGS)),
    n=st.integers(0, 12),
    units=st.integers(0, 20000),
)
@example(name="z2", n=5, units=128)  # exactly the 4 levels of 32 units I^5 needs
@example(name="z2", n=5, units=127)  # one unit short
@example(name="z3", n=4, units=288)  # exactly the 3 levels of 96 units I^4 needs
@example(name="z3", n=4, units=287)  # one unit short
@settings(max_examples=200, deadline=None)
def test_capped_ideal_power_matches_per_power_oracle(name, n, units):
    # Small budgets and powers reach both the early refusal, once the
    # ranks have stopped falling, and the refusal in the middle of a walk.
    ring = FILTRATION_RINGS[name]()
    with budget(units):
        try:
            want = per_power_oracle(ring, n, units)
        except CapExceededError:
            with pytest.raises(CapExceededError, match=walk_refusal(ring)):
                ideal_power(ring, n)
            return
        assert ideal_power(ring, n).rows() == want


@given(
    name=st.sampled_from(sorted(FILTRATION_RINGS)),
    last=st.integers(0, 12),
    units=st.integers(0, 20000),
)
@settings(max_examples=200, deadline=None)
def test_ideal_powers_told_the_last_power_match_per_power_oracle(name, last, units):
    # Told the last power it will be read to, the walk may refuse early,
    # but only when the oracle refuses some power up to that one.
    ring = FILTRATION_RINGS[name]()
    with budget(units):
        powers = ideal_powers(ring, last=last)
        try:
            wants = [per_power_oracle(ring, n, units) for n in range(last + 1)]
        except CapExceededError:
            with pytest.raises(CapExceededError, match=walk_refusal(ring)):
                for _ in range(last + 1):
                    next(powers)
            return
        for want in wants:
            assert next(powers).rows() == want


@given(a=st.integers(1, 4), b=st.integers(1, 3), n=st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_sparse_walk_matches_per_power_oracle_on_circle_products(a, b, n):
    # Products of a circle truncation and a cyclic ring have Hermite rows
    # with few nonzeros and two index generators.
    ring = ring_product(circle_truncation(a), cyclic_ring(b))
    want = per_power_oracle(ring, n)
    assert ideal_power(ring, n).rows() == want
    assert next(islice(ideal_powers(ring), n, None)).rows() == want


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


def test_ideal_power_builds_the_levels_up_to_n_only(monkeypatch):
    built = []
    init = IdealLattice.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.rank)

    monkeypatch.setattr(IdealLattice, "__init__", counting)
    ring = cyclic_ring(5)
    lat = ideal_power(ring, 4)
    # ideal_power reads the walk of ideal_powers from I^1 on: I, I^2, I^3
    # and I^4 become lattices, each level trusted; I^0 is not built and
    # nothing past I^4 is formed
    assert built == [4, 4, 4, 4]
    assert lat.rows() == per_power_oracle(ring, 4)


def loop_walk_rows(ring, aug_rows, last=None):
    """The Hermite term rows of I^2, I^3, ..., formed and charged level
    by level as ideal_power's own loop walked them; it ends after the
    first zero power."""
    gens = [fusion._aug_generator(ring, s) for s in ring.generators]
    rows, spent, level = aug_rows, 0, 1
    what = f"the ideal power walk of a rank-{ring.rank} ring"
    while rows:
        spent += fusion._level_units(ring, rows)
        errors.charge(spent, what)
        next_rows = hermite_terms(
            [fusion._row_times(ring.table, b, g) for b in rows for g in gens]
        )
        level += 1
        if last is not None and len(next_rows) == len(rows):
            errors.charge(spent + (last - level) * fusion._level_units(ring, next_rows), what)
        rows = next_rows
        yield rows


def loop_ideal_power(ring, n):
    """ideal_power as it was with a walk loop of its own, kept as the
    oracle for its read of ideal_powers."""
    if n < 0:
        raise InputError("ideal power needs n >= 0")
    if n == 0:
        return IdealLattice.full(ring)
    aug = augmentation_ideal(ring)
    rows = aug.terms
    if n == 1 or not rows:
        return aug
    for k, rows in enumerate(loop_walk_rows(ring, rows, n), start=2):
        if k == n or not rows:
            break
    return IdealLattice(ring, terms=rows)


# Cyclic and circle rings up to rank 12, ring tags, and products of a
# circle truncation with a tag; each built once.
LOOP_ORACLE_RINGS = (
    *(("z", k) for k in range(1, 13)),
    *(("circle", k) for k in range(1, 13)),
    *(("tag", tag) for tag in ("z2xz2", "z2xz3", "z3xz3", "z4xz2", "z2xz3xz5")),
    *(("circle x tag", (a, tag)) for a in (2, 3, 4) for tag in ("z2", "z3", "z2xz2", "z3xz3")),
)


@functools.lru_cache(maxsize=None)
def loop_oracle_ring(kind, arg):
    if kind == "z":
        return cyclic_ring(arg)
    if kind == "circle":
        return circle_truncation(arg)
    if kind == "tag":
        return ring_from_tag(arg)
    return ring_product(circle_truncation(arg[0]), ring_from_tag(arg[1]))


def refusal_or_lattice(power, ring, n):
    try:
        return power(ring, n)
    except CapExceededError as err:
        return str(err)


@given(
    spec=st.sampled_from(LOOP_ORACLE_RINGS),
    n=st.one_of(st.integers(0, 8), st.sampled_from([10**6, 10**12])),
)
@settings(max_examples=200, deadline=None)
def test_ideal_power_matches_its_old_walk_loop(spec, n):
    ring = loop_oracle_ring(*spec)
    want = refusal_or_lattice(loop_ideal_power, ring, n)
    got = refusal_or_lattice(ideal_power, ring, n)
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize("spec", LOOP_ORACLE_RINGS, ids=str)
def test_ideal_power_matches_its_old_walk_loop_far_out(spec):
    ring = loop_oracle_ring(*spec)
    for n in (10**6, 10**12):
        assert refusal_or_lattice(ideal_power, ring, n) == refusal_or_lattice(
            loop_ideal_power, ring, n
        )


# Rings whose generating set S has more than one index, with the highest
# power checked against the oracle: at rank 36 the oracle's hnf of
# rank(I)^2 products takes over a second per level.
MULTI_GENERATOR_RINGS = {
    "s3": (s3_ring, 6),
    "s3 x z3": (lambda: ring_product(s3_ring(), cyclic_ring(3)), 6),
    "circle:4 x z3xz3": (
        lambda: ring_product(circle_truncation(4), ring_from_tag("z3xz3")),
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(MULTI_GENERATOR_RINGS))
def test_ideal_powers_on_rings_with_several_generators_match_per_power_oracle(name):
    build, top = MULTI_GENERATOR_RINGS[name]
    ring = build()
    assert len(ring.generators) > 1
    wants = [per_power_oracle(ring, n) for n in range(top + 1)]
    assert [p.rows() for p in islice(ideal_powers(ring), top + 1)] == wants
    assert ideal_power(ring, top).rows() == wants[top]


@given(
    name=st.sampled_from(sorted(MULTI_GENERATOR_RINGS)),
    n=st.integers(0, 6),
    units=st.integers(0, 100000),
)
@example(name="s3 x z3", n=3, units=6912)  # exactly the 2 levels of 3456 units
@example(name="s3 x z3", n=3, units=6911)  # one unit short
@settings(max_examples=60, deadline=None)
def test_capped_ideal_power_on_rings_with_several_generators(name, n, units):
    # Each level is charged for its rank(I^k) * |S| products, as the oracle does.
    ring = MULTI_GENERATOR_RINGS[name][0]()
    with budget(units):
        try:
            want = per_power_oracle(ring, n, units)
        except CapExceededError:
            with pytest.raises(CapExceededError, match=walk_refusal(ring)):
                ideal_power(ring, n)
            return
        assert ideal_power(ring, n).rows() == want


@pytest.mark.parametrize(
    "ring",
    [
        pytest.param(cyclic_ring(5), id="z5"),
        pytest.param(ring_from_tag("z2xz3xz5"), id="z2xz3xz5"),
        pytest.param(ring_product(s3_ring(), cyclic_ring(3)), id="s3 x z3"),
        pytest.param(
            ring_product(circle_truncation(4), ring_from_tag("z3xz3")),
            id="circle:4 x z3xz3",
        ),
    ],
)
def test_each_power_level_forms_rank_times_generators_products(ring, monkeypatch):
    # Products with every row of I would form rank(I^k) * rank(I), which
    # is more on these rings, since |S| < rank(I).  The walk forms each
    # product of a row with a generator by one _row_times call.
    assert len(ring.generators) < ring.rank - 1
    calls = []
    row_times = fusion._row_times
    monkeypatch.setattr(
        fusion, "_row_times", lambda *args: calls.append(1) or row_times(*args)
    )
    walk = ideal_powers(ring)
    next(walk)  # I^0
    rows = next(walk).terms
    assert calls == []  # I itself is read off the augmentation
    for level, power in zip(range(4), walk):
        assert len(calls) == len(rows) * len(ring.generators), level
        calls.clear()
        rows = power.terms


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


def validation_outcome(labels, aug, table, is_fusion, exhaustive=False):
    """(axiom, indices) of the first failed ring check, or None.

    With exhaustive set, associativity is checked on every triple, as
    before Light's test: every basis index is passed as a generator.
    """
    with pytest.MonkeyPatch.context() as mp:
        if exhaustive:
            mp.setattr(fusion, "_basis_generators", lambda table: tuple(range(len(table))))
        try:
            BasedRing(labels, aug, table, is_fusion)
        except FusionRingError as err:
            return err.axiom, err.indices
    return None


@given(perturbed_tables())
@settings(max_examples=300, deadline=None)
def test_light_test_agrees_with_exhaustive_scan_on_perturbed_tables(table):
    labels, dims, dense = table
    sparse = tuple(
        tuple(tuple((k, n) for k, n in enumerate(cell) if n) for cell in plane)
        for plane in dense
    )
    fast = validation_outcome(labels, dims, sparse, True)
    assert fast == validation_outcome(labels, dims, sparse, True, exhaustive=True)


def product_rings_up_to_30():
    """Circle truncations and products up to rank 30, built once, by name."""
    c, z = circle_truncation, cyclic_ring
    return {
        **{f"circle:{n}": c(n) for n in (1, 2, 5, 12, 30)},
        "circle:3 x z3": ring_product(c(3), z(3)),
        "circle:5 x z5": ring_product(c(5), z(5)),
        "circle:4 x z2xz3": ring_product(c(4), ring_from_tag("z2xz3")),
        "circle:3 x z3xz3": ring_product(c(3), ring_from_tag("z3xz3")),
        "s3 x z2 x circle:2": ring_product(s3_ring(), ring_product(z(2), c(2))),
        "circle:3 x circle:3": ring_product(c(3), c(3)),
        "z2xz3xz5": ring_from_tag("z2xz3xz5"),
        "reg x circle:3 x z2": ring_product(
            regular_class_ring(), ring_product(c(3), z(2))
        ),
    }


PRODUCT_RINGS = product_rings_up_to_30()


@st.composite
def perturbed_sparse_rings(draw):
    """(labels, aug, table, is_fusion) of a product ring with a few cells edited.

    Each edit moves one unit of a cell (and, mostly, its mirror cell)
    to an output of the same augmentation, which keeps every axiom but
    associativity; a few edits move it anywhere.
    """
    ring = PRODUCT_RINGS[draw(st.sampled_from(sorted(PRODUCT_RINGS)))]
    r = ring.rank
    table = [[dict(cell) for cell in row] for row in ring.table]
    for _ in range(draw(st.integers(0, 2)) if r > 1 else 0):
        i, j = draw(st.integers(1, r - 1)), draw(st.integers(1, r - 1))
        cell = table[i][j]
        k = draw(st.sampled_from(sorted(cell) or [0]))
        same = [x for x in range(r) if ring.aug[x] == ring.aug[k]]
        k2 = draw(st.sampled_from(same) if draw(st.integers(0, 4)) else st.integers(0, r - 1))
        for a, b in {(i, j), (j, i)} if draw(st.integers(0, 3)) else {(i, j)}:
            table[a][b][k] = table[a][b].get(k, 0) - 1
            table[a][b][k2] = table[a][b].get(k2, 0) + 1
    sparse = tuple(
        tuple(tuple((k, n) for k, n in sorted(cell.items()) if n) for cell in row)
        for row in table
    )
    return ring.labels, ring.aug, sparse, ring.is_fusion


@given(perturbed_sparse_rings())
@settings(max_examples=80, deadline=None)
def test_light_test_agrees_with_exhaustive_scan_on_products(ring):
    assert validation_outcome(*ring) == validation_outcome(*ring, exhaustive=True)


UNIT_CELL_RINGS = {
    **{f"z{n}": cyclic_ring(n) for n in (2, 3, 4, 6)},
    "z2xz2": ring_from_tag("z2xz2"),
    "z3xz3": ring_from_tag("z3xz3"),
    **PRODUCT_RINGS,
}


@st.composite
def unit_moved_tables(draw):
    """The table of a ring with a few one-term cells ((k, 1),) moved to
    ((k2, 1),), mostly with the mirror cell.  Every edited cell stays one
    term of multiplicity 1, so Light's test compares such cells directly
    and meets its mismatches there."""
    ring = UNIT_CELL_RINGS[draw(st.sampled_from(sorted(UNIT_CELL_RINGS)))]
    r = ring.rank
    table = [list(row) for row in ring.table]
    units = [(i, j) for i in range(r) for j in range(r) if len(table[i][j]) == 1]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.sampled_from(units))
        k2 = draw(st.integers(0, r - 1))
        for a, b in {(i, j), (j, i)} if draw(st.integers(0, 3)) else {(i, j)}:
            table[a][b] = ((k2, 1),)
    return tuple(tuple(row) for row in table)


def dense_associativity_witness(table, middle):
    """Light's test as it was before the sparse sums: two r-wide lists
    per triple, compared whole."""
    r = len(table)
    for i in range(r):
        for j in middle:
            for k in range(r):
                lhs = [0] * r
                for m, c in table[i][j]:
                    for l, n in table[m][k]:
                        lhs[l] += c * n
                rhs = [0] * r
                for m, c in table[j][k]:
                    for l, n in table[i][m]:
                        rhs[l] += c * n
                if lhs != rhs:
                    return i, j, k, next(x for x in range(r) if lhs[x] != rhs[x])
    return None


def sparse_cells(dense):
    return tuple(
        tuple(tuple((k, n) for k, n in enumerate(cell) if n) for cell in plane)
        for plane in dense
    )


@given(
    st.one_of(
        perturbed_tables().map(lambda t: sparse_cells(t[2])),
        perturbed_sparse_rings().map(lambda t: t[2]),
        unit_moved_tables(),
    ),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_sparse_light_test_names_the_dense_witness(table, data):
    # Corrupted tables, with no other axiom checked first: the first
    # witness must agree for every middle index and for a drawn subset.
    middle = data.draw(st.lists(st.integers(0, len(table) - 1), unique=True))
    for mid in (range(len(table)), middle):
        assert fusion._associativity_witness(table, mid) == dense_associativity_witness(
            table, mid
        )


def left_normed_span(ring):
    """Hermite rows of the span of 1, e_s, (e_s e_t), ... for s, t, ... in
    ring.generators, grown one product length at a time until it stops."""
    units = [tuple(1 if k == s else 0 for k in range(ring.rank)) for s in ring.generators]
    frontier = {one_vec(ring)}
    span = hermite_rows(frontier, ring.rank)
    while True:
        frontier = {ring.mul_vec(m, e) for m in frontier for e in units}
        grown = hermite_rows(span + tuple(sorted(frontier)), ring.rank)
        if grown == span:
            return span
        span = grown


def divided_square_ring():
    """Basis 1, a, b with a * a = 2b: the powers of a span only 2b."""
    cells = (((0, 1),), ((1, 1),), ((2, 1),)), (((1, 1),), ((2, 2),), ()), (((2, 1),), (), ())
    return BasedRing(("1", "a", "b"), (1, 0, 0), cells, is_fusion=False)


SPAN_RINGS = {
    "divided square": divided_square_ring(),
    **{f"z{n}": cyclic_ring(n) for n in (1, 2, 6)},
    "s3": s3_ring(),
    "reg": regular_class_ring(),
    "reg x reg": ring_product(regular_class_ring(), regular_class_ring()),
    **PRODUCT_RINGS,
}


@pytest.mark.parametrize("name", sorted(SPAN_RINGS))
def test_basis_generators_span_the_ring(name):
    ring = SPAN_RINGS[name]
    identity = tuple(basis_mul(ring, 0, i) for i in range(ring.rank))
    assert left_normed_span(ring) == identity


def test_cyclic_rings_and_circle_truncations_are_generated_by_one_index():
    for n in range(2, 9):
        assert cyclic_ring(n).generators == (1,)
        assert circle_truncation(n).generators == (1,)
    assert cyclic_ring(1).generators == circle_truncation(1).generators == ()
    assert ring_from_tag("z2xz3").generators == (1, 3)
    # b is outside the span of 1, a and a * a = 2b, so it joins too
    assert divided_square_ring().generators == (1, 2)


def dense_lattice_insert(basis: dict, v) -> bool:
    """Put v into the lattice of the echelon rows basis (pivot -> row);
    True when the lattice grew, that is when v was outside it."""
    grew = False
    for p in range(len(v)):
        a, row = v[p], basis.get(p)
        if not a:
            continue
        if row is None:
            basis[p] = v
            return True
        b = row[p]
        q, rem = divmod(a, b)
        if rem:  # replace the pivot by gcd(a, b), unimodularly
            g, x, y = xgcd(b, a)
            basis[p] = [x * c + y * e for c, e in zip(row, v)]
            v = [b // g * e - a // g * c for c, e in zip(row, v)]
            grew = True
        else:
            v = [e - q * c for c, e in zip(row, v)]
    return grew


def dense_basis_generators(table) -> tuple:
    """The generator search as it was before the sparse one: r-wide
    products inserted into dense echelon rows."""
    r = len(table)
    basis, found, gens, pending = {}, [], [], []
    for s in range(r):
        e_s = [int(k == s) for k in range(r)]
        if not dense_lattice_insert(basis, e_s):
            continue
        if s:
            gens.append(s)
            pending += [(v, s) for v in found]
        found.append(e_s)
        pending += [(e_s, g) for g in gens]
        while pending:
            v, g = pending.pop()
            prod = [0] * r
            for i, c in enumerate(v):
                if c:
                    for k, n in table[i][g]:
                        prod[k] += c * n
            if dense_lattice_insert(basis, prod):
                found.append(prod)
                pending += [(prod, h) for h in gens]
    return tuple(gens)


GENERATOR_FAMILIES = {
    "cyclic": lambda: [cyclic_ring(n) for n in range(1, 25)],
    "product tags": lambda: [
        ring_from_tag(tag) for tag in ("z2xz2", "z2xz2xz2", "z2xz3", "z2xz3xz5", "z3xz3")
    ],
    "circle": lambda: [circle_truncation(n) for n in range(1, 61)],
    "fusion tables and products": lambda: list(SPAN_RINGS.values()),
    "every suite ring": lambda: [build() for build in SUITE_RINGS.values()],
}


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
def test_sparse_generator_search_matches_dense_oracle(family):
    # generators fixes which products the ideal-power walk forms, so the
    # two searches must agree exactly.
    for ring in GENERATOR_FAMILIES[family]():
        assert ring.generators == dense_basis_generators(ring.table), ring.labels


@st.composite
def small_int_tables(draw):
    """Tables of rank 1 to 4 with arbitrary cells, entries in [-3, 3]:
    their products meet pivots that do not divide them, so the search
    takes its gcd step."""
    r = draw(st.integers(1, 4))
    cell = st.dictionaries(st.integers(0, r - 1), st.integers(-3, 3), max_size=r)
    return tuple(
        tuple(tuple(sorted((k, n) for k, n in draw(cell).items() if n)) for _ in range(r))
        for _ in range(r)
    )


@given(
    st.one_of(
        perturbed_tables().map(lambda t: sparse_cells(t[2])),
        perturbed_sparse_rings().map(lambda t: t[2]),
        unit_moved_tables(),
        small_int_tables(),
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_generator_search_matches_dense_oracle_on_perturbed_tables(table):
    assert fusion._basis_generators(table) == dense_basis_generators(table)


IDEAL_RINGS = {
    "divided square": divided_square_ring,
    "z4": lambda: cyclic_ring(4),
    "z6": lambda: cyclic_ring(6),
    "s3": s3_ring,
    "circle:5": lambda: circle_truncation(5),
    "z2xz3": lambda: ring_from_tag("z2xz3"),
    "s3 x z2": lambda: ring_product(s3_ring(), cyclic_ring(2)),
    "circle:3 x z2": lambda: ring_product(circle_truncation(3), cyclic_ring(2)),
    "reg x reg": lambda: ring_product(regular_class_ring(), regular_class_ring()),
}


@st.composite
def near_miss_bases(draw):
    """(width, rows): a Hermite basis, mostly with one edit that may break
    the form: a negated row, an entry above a pivot moved, a repeated
    pivot column, a zero row, or two rows swapped."""
    width = draw(st.integers(1, 6))
    vector = st.lists(st.integers(-6, 6), min_size=width, max_size=width)
    rows = [list(row) for row in hermite_rows(draw(st.lists(vector, max_size=6)), width)]
    edit = draw(st.sampled_from(["none", "negate", "above", "repeat", "zero", "swap"]))
    pick = st.integers(0, max(len(rows) - 1, 0))
    if edit == "zero" or not rows:
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    elif edit == "negate":
        i = draw(pick)
        rows[i] = [-e for e in rows[i]]
    elif edit == "above" and len(rows) > 1:
        i = draw(st.integers(1, len(rows) - 1))
        col = next(j for j, e in enumerate(rows[i]) if e)
        rows[draw(st.integers(0, i - 1))][col] += draw(st.integers(-2, 2)) * rows[i][col]
    elif edit == "repeat":
        i = draw(pick)
        twin = list(rows[i])
        twin[-1] += draw(st.integers(-3, 3))
        rows.insert(i + 1, twin)
    elif edit == "swap" and len(rows) > 1:
        i, k = draw(pick), draw(pick)
        rows[i], rows[k] = rows[k], rows[i]
    return width, tuple(tuple(row) for row in rows)


@given(near_miss_bases())
@settings(max_examples=300, deadline=None)
def test_hermite_predicate_accepts_exactly_the_reduced_bases(basis):
    width, rows = basis
    terms = Lattice.from_rows(rows, width).terms
    assert fusion._is_hermite(terms) == (rows == hermite_rows(rows, width))


def full_closure_outcome(ring, rows):
    """The old check: every e_i b, in order, tested by one more reduction."""
    for i in range(ring.rank):
        ei = tuple(1 if k == i else 0 for k in range(ring.rank))
        for b in rows:
            prod = ring.mul_vec(ei, b)
            if hermite_rows(rows + (prod,), ring.rank) != rows:
                return prod
    return None


@given(
    name=st.sampled_from(sorted(IDEAL_RINGS)),
    close=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_generator_closure_agrees_with_full_closure(name, close, data):
    ring = IDEAL_RINGS[name]()
    vector = st.lists(st.integers(-3, 3), min_size=ring.rank, max_size=ring.rank)
    vectors = data.draw(st.lists(vector, max_size=3))
    if close:  # the ideal the vectors generate
        vectors = [ring.mul_vec(basis_mul(ring, 0, i), v) for i in range(ring.rank) for v in vectors]
    rows = hermite_rows(vectors, ring.rank)
    want = full_closure_outcome(ring, rows)
    if want is None:
        assert IdealLattice(ring, rows).rows() == list(rows)
    else:
        with pytest.raises(LatticeContainmentError) as err:
            IdealLattice(ring, rows)
        assert err.value.witness == want
    if close:
        assert want is None


def term_row(v) -> list:
    return [(j, e) for j, e in enumerate(v) if e]


def loop_mul_vec(ring, a, b) -> tuple:
    """The product as BasedRing.mul_vec formed it before every product
    moved to term rows: each index of a, r wide, against the nonzeros of b."""
    r = ring.rank
    out = [0] * r
    b_nonzero = [(j, b[j]) for j in range(r) if b[j]]
    for i in range(r):
        ai = a[i]
        if ai == 0:
            continue
        row = ring.table[i]
        for j, bj in b_nonzero:
            c = ai * bj
            for k, n in row[j]:
                out[k] += c * n
    return tuple(out)


# Every ring the tests above build, each by a function that builds it.
SUITE_RINGS = {
    **{name: lambda f=f: ring_of(f()) for name, f in MUL_RINGS.items()},
    **AUGMENTATION_RINGS,
    **IDEAL_RINGS,
    **{name: build for name, (build, _) in MULTI_GENERATOR_RINGS.items()},
    **{name: lambda r=r: r for name, r in {**SPAN_RINGS, **UNIT_CELL_RINGS}.items()},
}


@pytest.mark.parametrize("name", sorted(SUITE_RINGS))
def test_lattice_quotient_matches_the_dense_oracle(name):
    # every ordered pair of I^0, ..., I^3: a pair the wrong way round has a
    # row outside, named as lattice_quotient named it before abgroups.quotient
    ring = SUITE_RINGS[name]()
    powers = list(islice(ideal_powers(ring, last=3), 4))
    for outer in powers:
        for inner in powers:
            try:
                want = dense_quotient(outer.lattice, inner.basis)
            except LatticeContainmentError as exc:
                with pytest.raises(LatticeContainmentError) as got:
                    lattice_quotient(ring, outer, inner)
                assert got.value.witness == exc.witness
            else:
                assert lattice_quotient(ring, outer, inner) == want


@pytest.mark.parametrize("name", sorted(SUITE_RINGS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_term_row_product_matches_r_wide_loop(name, data):
    ring = SUITE_RINGS[name]()
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    vector = st.lists(entry, min_size=ring.rank, max_size=ring.rank)
    a, b = data.draw(vector), data.draw(vector)
    want = loop_mul_vec(ring, a, b)
    got = fusion._row_times(ring.table, term_row(a), term_row(b))
    assert 0 not in got.values()
    assert tuple(got.get(k, 0) for k in range(ring.rank)) == want
    assert multiply(ring, a, b).coefficients == want
    assert ring.mul_vec(a, b) == want

