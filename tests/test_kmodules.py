"""Module layer tests: presentations, images, Kunneth pieces, stability.

The dense module-axiom check that the sparse one replaced stays here as
the oracle for both the check on the ring's generators and the full
scan that names a failure.  The oracles keep relations as dense int row
tuples and hand RingModule their {column: entry} maps; the Kunneth
relations are checked against the Kronecker presentation built with the
matrix oracle of test_abgroups.  The dense ideal image, subgroup class,
factor ideal power and stability check that the term-row ones replaced
stay here as their oracles, and so does the Kronecker loop that built
the tensor module's action matrices before modules held structure
tables.  The graded Kunneth pieces, which nothing in the package builds,
live here too.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equik import fusion, kmodules
from equik.abgroups import FgAbelianGroup, TRIVIAL_GROUP, cokernel, direct_sum, tensor, tor
from equik.cli import main
from equik.errors import EquikError, InputError
from equik.fusion import (
    IdealLattice,
    circle_truncation,
    cyclic_ring,
    from_fusion_file,
    ideal_power,
    ideal_powers,
    ring_from_tag,
    ring_product,
)
from equik.intmat import IntMatrix, Lattice, hermite_rows, hermite_solve, hermite_terms
from equik.kmodules import (
    POWER_CAP,
    ModelDescriptor,
    ModuleInvariantError,
    RingModule,
    circle_model,
    element_stable_nonvanishing,
    factor_ideal_power,
    ideal_image,
    kunneth_pieces,
    max_nonvanishing_power,
    module_direct_sum,
    tensor_model,
    trunc_model,
    trunc_z2_model,
    truncated_ring_module,
    zero_module,
)
from equik.reports import report_to_json_dict, validate, z2_af_bounds
from test_abgroups import kron, vstack
from test_fusion import SUITE_RINGS, regular_class_ring
from dense_algebra import dense_quotient, mul, sub


def test_truncated_z2_groups():
    assert truncated_ring_module(cyclic_ring(2), 1).underlying_group() == (
        FgAbelianGroup(1, ())
    )
    assert truncated_ring_module(cyclic_ring(2), 2).underlying_group() == (
        FgAbelianGroup(1, (2,))
    )
    assert truncated_ring_module(cyclic_ring(2), 3).underlying_group() == (
        FgAbelianGroup(1, (4,))
    )


def test_circle_module_is_free():
    for n in (1, 2, 3, 5):
        mod = truncated_ring_module(circle_truncation(n), n)
        assert mod.underlying_group() == FgAbelianGroup(n, ())


def table_of(action) -> tuple:
    """The structure table RingModule takes, from dense action matrices,
    one per ring basis element: cell (a, i) holds the nonzero terms of
    row a of action[i]."""
    return tuple(
        tuple(tuple((k, e) for k, e in enumerate(m.row(a)) if e) for m in action)
        for a in range(action[0].rows)
    )


def cell_map(cell) -> dict:
    """A table cell as a {column: entry} map with no zeros; repeated
    columns add up."""
    out = {}
    for k, n in cell:
        out[k] = out.get(k, 0) + n
    return {k: n for k, n in out.items() if n}


def sparse_action(mod) -> tuple:
    """The module's action matrices as modules held them before they held
    tables: one {column: entry} row per generator, for each ring basis
    element; row a of matrix i is the cell table[a][i]."""
    return tuple(
        tuple(cell_map(mod.table[a][i]) for a in range(mod.generators))
        for i in range(mod.ring.rank)
    )


def dense(rows, g: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[row.get(j, 0) for j in range(g)] for row in rows], cols=g
    )


@lru_cache(maxsize=None)
def dense_action(mod) -> tuple:
    return tuple(dense(rows, mod.generators) for rows in sparse_action(mod))


def dense_module_check(ring, g, relations, action):
    """The dense module-axiom check, with one IntMatrix per basis element.

    Returns None when every axiom holds, else the (axiom, indices) pair
    of the first failure, in the order RingModule checks them.
    """
    rel_rows = hermite_rows(relations, g)

    def vanishes(mat):
        return all(hermite_solve(rel_rows, mat.row(i)) is not None for i in range(mat.rows))

    if not vanishes(sub(action[0], IntMatrix.identity(g))):
        return "unit acts as identity", (0,)
    r = ring.rank
    for i in range(r):
        ai = action[i]
        for j in range(i, r):
            aj = action[j]
            pij = mul(ai, aj)
            pji = mul(aj, ai)
            if not vanishes(sub(pij, pji)):
                return "actions commute", (i, j)
            acc = [0] * (g * g)
            for k, mult in ring.table[i][j]:
                for idx, e in enumerate(action[k].entries):
                    if e:
                        acc[idx] += mult * e
            if not vanishes(sub(pij, IntMatrix(g, g, tuple(acc)))):
                return "fusion compatibility", (i, j)
    for i in range(r):
        for row in rel_rows:
            moved = mul(IntMatrix.from_rows([row], cols=g), action[i])
            if not vanishes(moved):
                return "relations are invariant", (i,)
    return None


def generator_check(ring, g, relations, action) -> bool:
    """The check on the ring's generators alone, without the full scan."""
    lattice = Lattice.span(relations, g)
    return kmodules._axioms_hold_on_generators(ring, lattice, table_of(action))


def moved_relation(relations, g, idx, delta):
    """The relation rows with entry idx, counted row-major, moved by delta."""
    i, j = divmod(idx, g)
    row = list(relations[i])
    row[j] += delta
    return relations[:i] + (tuple(row),) + relations[i + 1 :]


def relation_maps(relations) -> list:
    """Dense relation rows as the {column: entry} maps RingModule takes."""
    return [{j: e for j, e in enumerate(row) if e} for row in relations]


def sparse_module_check(ring, g, relations, action):
    try:
        RingModule(ring, g, relation_maps(relations), table_of(action))
    except ModuleInvariantError as err:
        return err.axiom, err.indices
    return None


def test_module_validation_catches_bad_action():
    r = cyclic_ring(2)
    rel = ()
    good = truncated_ring_module(r, 2)
    assert good.generators == 2
    # chi acting as a nilpotent matrix breaks chi * chi = 1
    bad_action = (
        IntMatrix.identity(2),
        IntMatrix.from_rows([(0, 1), (0, 0)], cols=2),
    )
    with pytest.raises(ModuleInvariantError) as err:
        RingModule(r, 2, rel, table_of(bad_action))
    assert err.value.axiom == "fusion compatibility"


def test_module_validation_catches_bad_unit():
    r = cyclic_ring(2)
    rel = ()
    with pytest.raises(ModuleInvariantError) as err:
        RingModule(r, 1, rel, table_of((IntMatrix.from_rows([(2,)], cols=1),) * 2))
    assert err.value.axiom == "unit acts as identity"


def test_module_validation_catches_moving_relations():
    r = cyclic_ring(2)
    # relations <(2, 0)> are not preserved by the swap action of chi
    rel = ({0: 2},)
    swap = IntMatrix.from_rows([(0, 1), (1, 0)], cols=2)
    with pytest.raises(ModuleInvariantError) as err:
        RingModule(r, 2, rel, table_of((IntMatrix.identity(2), swap)))
    assert err.value.axiom == "relations are invariant"


@pytest.mark.parametrize(
    "rel",
    [({2: 2},), ({-1: 2},), ({0: 2, 1: 0.0},), ({0: True},), ((2, 0),)],
    ids=["column-out-of-range", "negative-column", "float", "bool", "dense-row"],
)
def test_module_rejects_malformed_relation_rows(rel):
    identity = table_of((IntMatrix.identity(2),) * 2)
    with pytest.raises(InputError) as err:
        RingModule(cyclic_ring(2), 2, rel, identity)
    assert not isinstance(err.value, ModuleInvariantError)


Z2_TABLE = cyclic_ring(2).table  # ((e0, chi), (chi, e0)) as unit cells


def with_cell(a, i, cell):
    """The z2 ring's table with cell (a, i) replaced."""
    rows = [list(row) for row in Z2_TABLE]
    rows[a][i] = cell
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize(
    "table",
    [
        Z2_TABLE[:1],
        Z2_TABLE + Z2_TABLE[:1],
        (Z2_TABLE[0], Z2_TABLE[1][:1]),
        (Z2_TABLE[0], Z2_TABLE[1] + ((),)),
        with_cell(1, 1, ((0, True),)),
        with_cell(1, 1, ((0, 0),)),
        with_cell(1, 1, ((0, 1), (1, 0))),
        with_cell(1, 1, ((2, 1),)),
        with_cell(1, 1, ((-1, 1),)),
        with_cell(1, 1, ((False, 1),)),
        with_cell(1, 1, ((0, 1.0),)),
        with_cell(1, 1, ((0, 1, 1),)),
        with_cell(1, 1, ((0,),)),
        with_cell(1, 1, (0, 1)),
        with_cell(1, 1, ([0, 1],)),
        with_cell(1, 1, [(0, 1)]),
        with_cell(1, 1, None),
        (list(Z2_TABLE[0]), Z2_TABLE[1]),
        list(Z2_TABLE),
        None,
    ],
    ids=[
        "one-row", "three-rows", "ragged-short", "ragged-long", "bool-n", "zero-n",
        "zero-n-beside-another", "k-out-of-range", "negative-k", "bool-k", "float-n",
        "triple", "single", "bare-ints", "list-term", "list-cell", "none-cell", "list-row",
        "list-table", "none",
    ],
)
def test_module_rejects_malformed_tables(table):
    # Each is bad input at the boundary, never a TypeError from deep
    # inside a product and never a module axiom failure.
    with pytest.raises(InputError) as err:
        RingModule(cyclic_ring(2), 2, (), table)
    assert not isinstance(err.value, ModuleInvariantError)
    assert str(err.value).startswith("module table needs 2 x 2 cells of int pairs")


def test_truncated_ring_module_takes_the_ring_table_itself():
    ring = cyclic_ring(3)
    assert truncated_ring_module(ring, 2).table is ring.table


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ideal_images_on_truncated_z2(m):
    mod = truncated_ring_module(cyclic_ring(2), m + 1)
    img = ideal_image(ideal_power(cyclic_ring(2), m), mod)
    assert img == FgAbelianGroup(0, (2,))


def test_ideal_image_on_circle():
    mod = truncated_ring_module(circle_truncation(4), 4)
    img = ideal_image(ideal_power(circle_truncation(4), 2), mod)
    assert img == FgAbelianGroup(2, ())


def test_ideal_image_requires_matching_ring():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    with pytest.raises(InputError):
        ideal_image(ideal_power(cyclic_ring(3), 1), mod)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_max_nonvanishing_power_of_truncations(n):
    mod = truncated_ring_module(cyclic_ring(2), n)
    assert max_nonvanishing_power(mod) == n - 1
    circle = truncated_ring_module(circle_truncation(n), n)
    assert max_nonvanishing_power(circle) == n - 1


def test_max_nonvanishing_power_edge_cases():
    assert max_nonvanishing_power(zero_module(cyclic_ring(3))) == -1
    rank_one = truncated_ring_module(cyclic_ring(1), 1)
    assert max_nonvanishing_power(rank_one) == 0


def test_kunneth_group_matches_abelian_tensor():
    mg = truncated_ring_module(cyclic_ring(2), 3)
    mh = truncated_ring_module(cyclic_ring(3), 2)
    mod, torsion = kunneth_pieces(mg, mh)
    a = mg.underlying_group()
    b = mh.underlying_group()
    assert mod.underlying_group() == tensor(a, b)
    assert torsion == tor(a, b)


def test_kunneth_torsion_piece_nonzero():
    mg = truncated_ring_module(cyclic_ring(2), 2)
    _, torsion = kunneth_pieces(mg, mg)
    assert torsion == FgAbelianGroup(0, (2,))


@pytest.mark.parametrize(
    "text", ["tensor(circle:9,trunc:z3xz3:3)", "tensor(tensor(circle:3,trunc:z2:1),trunc:z3:2)"]
)
def test_tensor_of_truncations_shares_its_rings_table(text):
    # R/I x R/J acts by the product ring's own table, which ring_product
    # formed: the module takes that table instead of a second Kronecker one
    model = ModelDescriptor.parse(text)
    mod = model.instantiate()
    assert mod.table is mod.ring.table
    assert mod.table == fusion._kron(model.left.instantiate().table, model.right.instantiate().table)


def test_tensor_of_a_public_module_forms_its_own_table():
    # a table given through the public constructor is checked and kept,
    # not the ring's object, so kunneth_pieces forms the Kronecker product
    ring = cyclic_ring(2)
    mg = RingModule(ring, 2, [], tuple([tuple(row) for row in ring.table]))
    mh = truncated_ring_module(cyclic_ring(3), 2)
    mod, _ = kunneth_pieces(mg, mh)
    assert mg.table is not ring.table
    assert mod.table is not mod.ring.table
    assert mod.table == fusion._kron(mg.table, mh.table) == mod.ring.table


def test_module_direct_sum_groups_add():
    a = truncated_ring_module(cyclic_ring(2), 2)
    b = truncated_ring_module(cyclic_ring(2), 1)
    s = module_direct_sum(a, b)
    assert s.underlying_group() == FgAbelianGroup(2, (2,))


# The graded Kunneth pieces of two two-periodic modules, built from
# kunneth_pieces and module_direct_sum.


@dataclass(frozen=True)
class GradedModulePair:
    """Even and odd parts of a two-periodic module."""

    even: RingModule
    odd: RingModule

    def __post_init__(self):
        if self.even.ring != self.odd.ring:
            raise InputError("graded parts must share a ring")


@dataclass(frozen=True)
class GradedKunnethPieces:
    even_tensor: RingModule
    odd_tensor: RingModule
    even_tor: FgAbelianGroup
    odd_tor: FgAbelianGroup


def graded_kunneth(pg: GradedModulePair, ph: GradedModulePair) -> GradedKunnethPieces:
    """Graded tensor/Tor pieces with the usual degree bookkeeping.

    Tensor terms pair degrees additively; Tor terms carry the one-step
    degree shift, so the even Tor piece pairs even with odd.
    """
    ee, _ = kunneth_pieces(pg.even, ph.even)
    oo, _ = kunneth_pieces(pg.odd, ph.odd)
    eo, _ = kunneth_pieces(pg.even, ph.odd)
    oe, _ = kunneth_pieces(pg.odd, ph.even)
    even_tensor = module_direct_sum(ee, oo)
    odd_tensor = module_direct_sum(eo, oe)
    ge, go = pg.even.underlying_group(), pg.odd.underlying_group()
    he, ho = ph.even.underlying_group(), ph.odd.underlying_group()
    even_tor = direct_sum(tor(ge, ho), tor(go, he))
    odd_tor = direct_sum(tor(ge, he), tor(go, ho))
    return GradedKunnethPieces(even_tensor, odd_tensor, even_tor, odd_tor)


def test_graded_kunneth_with_trivial_odd_part():
    r2, r3 = cyclic_ring(2), cyclic_ring(3)
    pg = GradedModulePair(truncated_ring_module(r2, 2), zero_module(r2))
    ph = GradedModulePair(truncated_ring_module(r3, 2), zero_module(r3))
    pieces = graded_kunneth(pg, ph)
    even_direct, _ = kunneth_pieces(pg.even, ph.even)
    assert pieces.even_tensor.underlying_group() == (
        even_direct.underlying_group()
    )
    assert pieces.odd_tensor.underlying_group().is_trivial
    assert pieces.even_tor == TRIVIAL_GROUP
    assert pieces.odd_tor == tor(
        pg.even.underlying_group(), ph.even.underlying_group()
    )


@pytest.mark.parametrize("group,order", [("z3", 3), ("z5", 5)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_factor_ideal_image_is_order_two(group, order, m):
    right = ring_from_tag(group)
    mg = truncated_ring_module(cyclic_ring(2), m + 1)
    mh = truncated_ring_module(right, 1)
    mod, _ = kunneth_pieces(mg, mh)
    lat = factor_ideal_power(mod.ring, cyclic_ring(2), m)
    assert ideal_image(lat, mod) == FgAbelianGroup(0, (2,))
    unit = tuple(1 if i == 0 else 0 for i in range(mod.generators))
    full = ideal_power(mod.ring, m)
    assert element_stable_nonvanishing(mod, unit, full, order)
    assert not element_stable_nonvanishing(mod, unit, full, 2)


def test_stability_false_for_matching_multiplier():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    ideal = ideal_power(mod.ring, 1)
    assert not element_stable_nonvanishing(mod, (1, 0), ideal, 2)
    assert element_stable_nonvanishing(mod, (1, 0), ideal, 3)
    assert element_stable_nonvanishing(mod, (1, 0), ideal, 1)


def test_stability_on_prime_power_torsion():
    # I . 1 is Z_4 on Z[Z_2] / I^3 and Z_8 on Z[Z_2] / I^4: multiplying by
    # 2 or 6 kills it however often, multiplying by 3 never does.
    for n, order in ((3, 4), (4, 8)):
        mod = truncated_ring_module(cyclic_ring(2), n)
        assert ideal_image(ideal_power(mod.ring, 1), mod) == FgAbelianGroup(0, (order,))
        for mult, stable in ((1, True), (2, False), (3, True), (4, False), (6, False)):
            ideal = ideal_power(mod.ring, 1)
            assert element_stable_nonvanishing(mod, (1, 0), ideal, mult) == stable, (n, mult)


def test_stability_true_for_free_image():
    mod = truncated_ring_module(circle_truncation(3), 3)
    x = (1, 0, 0)
    assert element_stable_nonvanishing(mod, x, ideal_power(mod.ring, 2), 2)
    assert not element_stable_nonvanishing(mod, x, ideal_power(mod.ring, 3), 2)


def test_stability_input_validation():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    ideal = ideal_power(mod.ring, 1)
    with pytest.raises(InputError):
        element_stable_nonvanishing(mod, (1,), ideal, 2)
    with pytest.raises(InputError):
        element_stable_nonvanishing(mod, (1, 0), ideal, 0)
    with pytest.raises(InputError, match="different rings"):
        element_stable_nonvanishing(mod, (1, 0), ideal_power(cyclic_ring(3), 1), 1)


def _descriptor_text(tree) -> str:
    """The descriptor text a model's JSON tree states."""
    if tree["kind"] == "tensor":
        return f"tensor({_descriptor_text(tree['left'])},{_descriptor_text(tree['right'])})"
    return ":".join(tree[key] for key in ("kind", "ring", "order") if key in tree)


def test_model_descriptor_parse_render_roundtrip():
    texts = [
        "trunc-z2:3",
        "circle:4",
        "trunc:z5:2",
        "tensor(trunc-z2:2,trunc:z3:1)",
        "tensor(tensor(trunc-z2:1,trunc:z3:1),circle:2)",
    ]
    # parse and the factories build by position; the same descriptors
    # built by keyword must equal them, repr included
    by_keyword = [
        ModelDescriptor("trunc-z2", order=3),
        ModelDescriptor("circle", order=4),
        ModelDescriptor("trunc", order=2, ring="z5"),
        ModelDescriptor(
            "tensor",
            left=ModelDescriptor("trunc-z2", order=2),
            right=ModelDescriptor("trunc", ring="z3", order=1),
        ),
    ]
    by_factory = [
        trunc_z2_model(3),
        circle_model(4),
        trunc_model("z5", 2),
        tensor_model(trunc_z2_model(2), trunc_model("z3", 1)),
    ]
    for text, keyword, factory in zip(texts, by_keyword, by_factory):
        assert ModelDescriptor.parse(text) == keyword == factory
        assert repr(ModelDescriptor.parse(text)) == repr(keyword) == repr(factory)
    for text in texts:
        model = ModelDescriptor.parse(text)
        assert model.render() == text
        assert _descriptor_text(model.to_json_dict()) == text


def test_model_descriptor_parse_errors(capsys):
    # entries 5-8 have orders that are not canonical decimals, and the
    # last three have a space around the descriptor or its tensor halves
    for bad in ("trunc-z2", "circle:x", "tensor(a)", "spline:3",
                "circle:+3", "circle: 3", "trunc-z2:0_3", "circle:03",
                " circle:3", "circle:3 ", "tensor( circle:2 , trunc-z2:1 )"):
        with pytest.raises(InputError):
            ModelDescriptor.parse(bad)
        assert main(["model", bad]) == 2
        assert capsys.readouterr().err.count("\n") == 1


def test_model_instantiation_matches_factories():
    assert trunc_z2_model(3).instantiate().underlying_group() == (
        FgAbelianGroup(1, (4,))
    )
    assert circle_model(3).instantiate().underlying_group() == (
        FgAbelianGroup(3, ())
    )
    assert trunc_model("z3", 1).instantiate().underlying_group() == (
        FgAbelianGroup(1, ())
    )
    tens = tensor_model(trunc_z2_model(3), trunc_model("z3", 1))
    assert tens.instantiate().underlying_group() == FgAbelianGroup(1, (4,))


# Descriptor -> (ring rank, underlying group) of the instantiated module,
# as computed before model kinds became one table.
MODEL_INSTANCES = {
    "trunc-z2:1": (2, FgAbelianGroup(1, ())),
    "trunc-z2:4": (2, FgAbelianGroup(1, (8,))),
    "circle:1": (1, FgAbelianGroup(1, ())),
    "circle:4": (4, FgAbelianGroup(4, ())),
    "trunc:z1:0": (1, FgAbelianGroup(0, ())),
    "trunc:z3:2": (3, FgAbelianGroup(1, (3,))),
    "trunc:z2xz3:2": (6, FgAbelianGroup(1, (6,))),
    "tensor(circle:2,trunc:z3:1)": (6, FgAbelianGroup(2, ())),
    "tensor(trunc-z2:2,circle:3)": (6, FgAbelianGroup(3, (2, 2, 2))),
    "tensor(tensor(trunc-z2:1,trunc:z3:1),circle:2)": (12, FgAbelianGroup(2, ())),
}


@pytest.mark.parametrize("text", sorted(MODEL_INSTANCES))
def test_every_model_kind_round_trips_and_instantiates(text):
    model = ModelDescriptor.parse(text)
    assert model.render() == text
    assert _descriptor_text(model.to_json_dict()) == text
    module = model.instantiate()
    assert module.ring == model.ring_of()
    assert (module.ring.rank, module.underlying_group()) == MODEL_INSTANCES[text]


def test_model_json_keys_and_order_floors():
    assert ModelDescriptor.parse("trunc:z3:2").to_json_dict() == {
        "kind": "trunc",
        "order": "2",
        "ring": "z3",
    }
    assert list(ModelDescriptor.parse("trunc:z3:2").to_json_dict()) == [
        "kind",
        "order",
        "ring",
    ]
    for bad in ("trunc-z2:0", "circle:0", "trunc:z2:-1"):
        with pytest.raises(InputError):
            ModelDescriptor.parse(bad).instantiate()
    # a report whose witness model has an unknown kind is not valid
    tree = report_to_json_dict(z2_af_bounds(2))
    next(c for c in tree["certificates"] if c["role"] == "lower")["model"]["kind"] = "spline"
    reasons = []
    assert not validate(tree, reasons)
    assert reasons == ["report.certificates[0].model.kind: expected 'trunc-z2', found 'spline'"]
    with pytest.raises(InputError):
        ModelDescriptor("spline", order=3).render()


def test_act_runs_on_the_right():
    mod = truncated_ring_module(cyclic_ring(3), 2)
    chi = (0, 1, 0)
    e0 = tuple(1 if i == 0 else 0 for i in range(mod.generators))
    moved = mod.act(chi, e0)
    # chi * 1 = chi, so the unit generator moves to the chi generator
    assert moved == (0, 1, 0)


def dense_act(mod, ring_vec, module_vec):
    """sum over i of ring_vec[i] (module_vec . A_i), each A_i a dense matrix."""
    g = mod.generators
    out = [0] * g
    for c, a in zip(ring_vec, dense_action(mod)):
        for i, m in enumerate(module_vec):
            if c and m:
                for j in range(g):
                    out[j] += c * m * a.entry(i, j)
    return tuple(out)


def test_act_matches_dense_oracle_on_every_basis_pair():
    # Direct sums have more generators than ring basis elements, so an act
    # that read one vector for the other would fail here.
    for name, mod in oracle_modules():
        g, r = mod.generators, mod.ring.rank
        for i in range(r):
            e_i = tuple(int(k == i) for k in range(r))
            for a in range(g):
                e_a = tuple(int(k == a) for k in range(g))
                assert mod.act(e_i, e_a) == dense_act(mod, e_i, e_a), (name, i, a)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_act_matches_dense_oracle(data):
    _, mod = data.draw(st.sampled_from(oracle_modules()))
    ints = st.integers(-4, 4)
    ring_vec = data.draw(st.lists(ints, min_size=mod.ring.rank, max_size=mod.ring.rank))
    module_vec = data.draw(st.lists(ints, min_size=mod.generators, max_size=mod.generators))
    assert mod.act(ring_vec, module_vec) == dense_act(mod, ring_vec, module_vec)


def test_stability_on_a_given_power_matches_the_walk():
    mod = truncated_ring_module(cyclic_ring(2), 3)
    unit = (1, 0)
    for n, walked in zip(range(4), ideal_powers(mod.ring, last=3)):
        power = ideal_power(mod.ring, n)
        for mult in (1, 2, 3):
            assert element_stable_nonvanishing(
                mod, unit, walked, mult
            ) == element_stable_nonvanishing(mod, unit, power, mult)


@given(st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_truncation_relations_annihilate(n):
    mod = truncated_ring_module(cyclic_ring(3), n)
    img = ideal_image(ideal_power(cyclic_ring(3), n), mod)
    assert img.is_trivial


# Models whose pairwise tensor pieces stay small enough for the dense oracle.
TENSOR_FACTORS = ("trunc-z2:1", "trunc-z2:3", "circle:2", "trunc:z3:1", "trunc:z3:2")


@lru_cache(maxsize=None)
def oracle_modules() -> tuple:
    """(name, module) for every model kind, tensor pieces of pairs of models,
    and direct sums.

    The S3 character ring has cells with several terms, so its modules
    have action rows with several entries, unlike the cyclic and circle
    ones; the regular-class ring has the one-term cell x x = 2 x, which
    is not a unit cell.
    """
    def model(text):
        return text, ModelDescriptor.parse(text).instantiate()

    out = [model(text) for text in sorted(MODEL_INSTANCES)]
    s3 = from_fusion_file(Path(__file__).parent / "data" / "s3_fusion.json")
    s3_modules = [(f"s3 mod I^{n}", truncated_ring_module(s3, n)) for n in (1, 2, 3)]
    out += s3_modules
    out += [(f"reg mod I^{n}", truncated_ring_module(regular_class_ring(), n)) for n in (1, 2, 3)]
    factors = [model(text) for text in TENSOR_FACTORS] + s3_modules
    for a, left in factors:
        for b, right in factors:
            out.append((f"{a} x {b}", kunneth_pieces(left, right)[0]))
    z2, z3, c3 = cyclic_ring(2), cyclic_ring(3), circle_truncation(3)
    sums = [
        (truncated_ring_module(z2, 2), truncated_ring_module(z2, 3)),
        (truncated_ring_module(z3, 2), zero_module(z3)),
        (truncated_ring_module(c3, 2), truncated_ring_module(c3, 3)),
    ]
    out += [(f"sum {i}", module_direct_sum(a, b)) for i, (a, b) in enumerate(sums)]
    return tuple(out)


def kronecker_relations(left, right):
    """R x I and I x S stacked, by kron and vstack on IntMatrix."""
    r = IntMatrix.from_rows(left.lattice.rows, cols=left.generators)
    s = IntMatrix.from_rows(right.lattice.rows, cols=right.generators)
    ig, ih = IntMatrix.identity(left.generators), IntMatrix.identity(right.generators)
    stacked = vstack(kron(r, ih), kron(ig, s))
    return [stacked.row(i) for i in range(stacked.rows)]


@pytest.mark.parametrize("a", TENSOR_FACTORS)
@pytest.mark.parametrize("b", TENSOR_FACTORS)
def test_kunneth_relations_span_the_kronecker_lattice(a, b):
    left, right = (ModelDescriptor.parse(text).instantiate() for text in (a, b))
    mod, _ = kunneth_pieces(left, right)
    assert mod.lattice.rows == hermite_rows(kronecker_relations(left, right), mod.generators)


def action_kron(left, right) -> tuple:
    """The tensor module's action matrices as kunneth_pieces built them
    before modules held tables: A_i x B_j for each pair of basis elements,
    one {column: entry} row per generator (c, d) -> c * h + d."""
    h = right.generators
    return tuple(
        tuple(
            {c * h + d: x * y for c, x in arow.items() for d, y in brow.items()}
            for arow in am
            for brow in bm
        )
        for am in sparse_action(left)
        for bm in sparse_action(right)
    )


def ring_table_kron(r1, r2) -> tuple:
    """ring_product's table as it built it before it called _kron."""
    n2 = r2.rank
    return tuple(
        [
            tuple(
                [
                    tuple([(k1 * n2 + k2, m1 * m2) for k1, m1 in c1 for k2, m2 in c2])
                    for c1 in row1
                    for c2 in row2
                ]
            )
            for row1 in r1.table
            for row2 in r2.table
        ]
    )


@lru_cache(maxsize=None)
def kron_factors() -> tuple:
    """The TENSOR_FACTORS models and the S3 truncations, as modules."""
    s3 = from_fusion_file(Path(__file__).parent / "data" / "s3_fusion.json")
    return tuple(model_module(text) for text in TENSOR_FACTORS) + tuple(
        truncated_ring_module(s3, n) for n in (1, 2)
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kron_matches_the_action_matrix_loop(data):
    left = data.draw(st.sampled_from(kron_factors()), label="left")
    right = data.draw(st.sampled_from(kron_factors()), label="right")
    table = fusion._kron(left.table, right.table)
    mod, _ = kunneth_pieces(left, right)
    assert mod.table == table
    assert sparse_action(mod) == action_kron(left, right)


# Pairs of suite rings whose product table stays small.
SUITE_RANKS = {name: build().rank for name, build in SUITE_RINGS.items()}
SUITE_PAIRS = [(a, b) for a in sorted(SUITE_RANKS) for b in sorted(SUITE_RANKS)
               if SUITE_RANKS[a] * SUITE_RANKS[b] <= 200]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kron_matches_the_old_ring_product_table(data):
    a, b = data.draw(st.sampled_from(SUITE_PAIRS), label="pair")
    r1, r2 = SUITE_RINGS[a](), SUITE_RINGS[b]()
    assert fusion._kron(r1.table, r2.table) == ring_table_kron(r1, r2)
    if r1.rank * r2.rank <= 36:
        assert ring_product(r1, r2).table == ring_table_kron(r1, r2)


def test_dense_oracle_accepts_every_built_module():
    # Building each module ran the sparse check.
    for name, mod in oracle_modules():
        action = dense_action(mod)
        verdict = dense_module_check(mod.ring, mod.generators, mod.lattice.rows, action)
        assert verdict is None, name


def perturbed_module(data):
    """(ring, g, relations, action) of an oracle module with one edit: an
    action entry or a relation entry moved by a small delta, or the one
    entry of an action row moved to another column.  Cells of the cyclic
    and circle modules are unit cells ((k, 1),), and the last edit keeps
    them so, so products formed on them read cells in place and still
    meet failures."""
    pool = oracle_modules()
    _, mod = pool[data.draw(st.integers(0, len(pool) - 1), label="module")]
    g, ring = mod.generators, mod.ring
    action = list(dense_action(mod))
    relations = mod.lattice.rows
    target = data.draw(st.sampled_from(("action", "relation", "move")), label="target")
    if g and target != "relation":
        k = data.draw(st.integers(0, ring.rank - 1), label="k")
        ent = list(action[k].entries)
        if target == "move":
            a = data.draw(st.integers(0, g - 1), label="row")
            held = [a * g + j for j in range(g) if ent[a * g + j]]
            src = data.draw(st.sampled_from(held or [a * g]), label="from")
            dst = a * g + data.draw(st.integers(0, g - 1), label="to")
            ent[src], ent[dst] = 0, ent[src]
        else:
            idx = data.draw(st.integers(0, g * g - 1), label="entry")
            ent[idx] += data.draw(st.sampled_from((-2, -1, 1, 2)), label="delta")
        action[k] = IntMatrix(g, g, tuple(ent))
    elif relations:
        idx = data.draw(st.integers(0, len(relations) * g - 1), label="entry")
        delta = data.draw(st.sampled_from((-2, -1, 1, 2)), label="delta")
        relations = moved_relation(relations, g, idx, delta)
    return ring, g, relations, action


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_module_check_matches_dense_oracle(data):
    # The two checks must agree on failures as well as on passes.
    module = perturbed_module(data)
    assert sparse_module_check(*module) == dense_module_check(*module)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_generator_check_matches_dense_oracle(data):
    # The generator check alone must pass exactly when every axiom holds,
    # and the module must then raise the oracle's first failure.
    module = perturbed_module(data)
    want = dense_module_check(*module)
    assert generator_check(*module) == (want is None)
    assert sparse_module_check(*module) == want


def outside_generators(mod):
    """(k, action with one entry of act[k] moved) for each k not in S."""
    g, ring = mod.generators, mod.ring
    action = dense_action(mod)
    for k in range(ring.rank):
        if k in ring.generators:
            continue
        for idx in range(g * g):
            for delta in (-1, 1):
                ent = list(action[k].entries)
                ent[idx] += delta
                moved = list(action)
                moved[k] = IntMatrix(g, g, tuple(ent))
                yield k, moved


@pytest.mark.parametrize(
    "mod",
    [
        truncated_ring_module(cyclic_ring(3), 2),
        truncated_ring_module(cyclic_ring(4), 3),
        truncated_ring_module(circle_truncation(4), 4),
        truncated_ring_module(ring_from_tag("z2xz3"), 2),
    ],
    ids=["z3 mod I^2", "z4 mod I^3", "circle:4", "z2xz3 mod I^2"],
)
def test_generator_check_sees_actions_outside_the_generators(mod):
    # Only act[k] for a k outside S moves, so the fault shows only in the
    # products act[s] act[k], never in act[s] alone.
    g, ring, relations = mod.generators, mod.ring, mod.lattice.rows
    assert ring.generators and ring.rank > len(ring.generators) + 1
    cases = 0
    for k, action in outside_generators(mod):
        want = dense_module_check(ring, g, relations, action)
        if want is None:  # the entry moved inside the relations
            continue
        cases += 1
        assert not generator_check(ring, g, relations, action), (k, want)
        assert sparse_module_check(ring, g, relations, action) == want
    assert cases


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generator_check_reaches_the_last_index(n):
    # act[k] = 2^k on Z: each act[1] act[j] matches the table except the
    # last, 2^n, where the table asks for act[0] = 1.
    ring = cyclic_ring(n)
    action = tuple(IntMatrix.from_rows([(2**k,)], cols=1) for k in range(n))
    rel = ()
    assert dense_module_check(ring, 1, rel, action) == ("fusion compatibility", (1, n - 1))
    assert not generator_check(ring, 1, rel, action)


def test_generator_check_sees_relations_moved_by_a_generator():
    # chi swaps the generators: every product axiom holds, and only the
    # relations <(2, 0)> fail to be invariant under chi, a generator.
    r = cyclic_ring(2)
    rel = ((2, 0),)
    swap = IntMatrix.from_rows([(0, 1), (1, 0)], cols=2)
    action = (IntMatrix.identity(2), swap)
    assert dense_module_check(r, 2, rel, action) == ("relations are invariant", (1,))
    assert not generator_check(r, 2, rel, action)


def test_full_scan_that_finds_nothing_raises(monkeypatch):
    # The scan runs only after the generator check failed, so a scan that
    # passes is an internal fault, never a silent success.
    # R/I^2 for R = Z[Z/3], built by the public constructor, which checks.
    ring = cyclic_ring(3)
    relations = [dict(row) for row in ideal_power(ring, 2).terms]
    monkeypatch.setattr(kmodules, "_axioms_hold_on_generators", lambda *args: False)
    with pytest.raises(EquikError) as err:
        RingModule(ring, 3, relations, ring.table)
    assert not isinstance(err.value, ModuleInvariantError)


def test_act_takes_only_int_vectors():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    for ring_vec, module_vec in (
        ((0, 1.5), (1, 0)),
        ((0, 1), (1.0, 0)),
        ((0, True), (1, 0)),
        ((0, 1), ("1", 0)),
    ):
        with pytest.raises(InputError):
            mod.act(ring_vec, module_vec)


def test_stability_takes_only_int_elements():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    for x in ((1.9, 0), ("1", 0), (True, 0)):
        with pytest.raises(InputError):
            element_stable_nonvanishing(mod, x, ideal_power(mod.ring, 1), 1)


# The dense image, subgroup class, factor power and stability check that
# the term-row ones replaced, with dense_act for the action.


def dense_subgroup_class(mod, vectors) -> FgAbelianGroup:
    rel_rows = mod.lattice.rows
    outer = Lattice.span([tuple(v) for v in vectors] + list(rel_rows), mod.generators)
    return dense_quotient(outer, rel_rows)


def dense_ideal_image(lattice, mod) -> FgAbelianGroup:
    g = mod.generators
    vectors = []
    for b in lattice.basis:
        for a in range(g):
            gen = tuple(1 if x == a else 0 for x in range(g))
            vectors.append(dense_act(mod, b, gen))
    return dense_subgroup_class(mod, vectors)


def dense_factor_ideal_power(ring, left_ring, m: int) -> IdealLattice:
    lat = ideal_power(left_ring, m)
    rr = ring.rank // left_ring.rank
    rows = []
    for u in lat.basis:
        for j in range(rr):
            row = [0] * (len(u) * rr)
            for i, c in enumerate(u):
                row[i * rr + j] = c
            rows.append(tuple(row))
    return IdealLattice.from_rows(ring, rows)


def strip_primes(d: int, n: int) -> int:
    """Remove every prime factor of n from d."""
    while True:
        g = gcd(d, n)
        if g == 1:
            return d
        while d % g == 0:
            d //= g


def dense_stable(mod, x, n: int, mult: int) -> bool:
    """Whether I^n . x has an element of infinite order or of finite order
    coprime to mult."""
    images = [dense_act(mod, b, x) for b in ideal_power(mod.ring, n).basis]
    sub = dense_subgroup_class(mod, images)
    return sub.free_rank > 0 or any(strip_primes(d, mult) > 1 for d in sub.torsion)


CIRCLE_Z3 = "tensor(circle:5,trunc:z3:3)"
FACTOR_MODELS = TENSOR_FACTORS + ("circle:5", "trunc:z3:3")


@lru_cache(maxsize=None)
def model_module(text: str) -> RingModule:
    return ModelDescriptor.parse(text).instantiate()


def image_modules() -> tuple:
    """The oracle modules and a circle x z3 tensor piece."""
    return oracle_modules() + ((CIRCLE_Z3, model_module(CIRCLE_Z3)),)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_class_matches_dense_oracle(data):
    _, mod = data.draw(st.sampled_from(image_modules()), label="module")
    g = mod.generators
    vectors = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=g, max_size=g), max_size=4),
        label="vectors",
    )
    maps = [{j: e for j, e in enumerate(v) if e} for v in vectors]
    assert mod.subgroup_class(maps) == dense_subgroup_class(mod, vectors)


@pytest.mark.parametrize(
    "name,mod",
    image_modules() + tuple((text, model_module(text)) for text in TENSOR_FACTORS),
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_underlying_group_matches_the_dense_cokernel(name, mod):
    # the group was read from the relations' dense Hermite rows
    assert mod.underlying_group() == cokernel(mod.lattice.rows, mod.generators)


def test_subgroup_class_drops_zero_entries():
    # a zero entry once came back from hermite_terms as a zero pivot
    mod = truncated_ring_module(cyclic_ring(2), 2)
    assert mod.subgroup_class([{0: 0, 1: 2}]) == mod.subgroup_class([{1: 2}])
    assert mod.subgroup_class([{0: 0, 1: 0}]) == mod.subgroup_class([])


@pytest.mark.parametrize(
    "vector",
    [{0: 1.0}, {0: True}, {1: "2"}, {2: 1}, {-1: 1}, {"0": 1}, ((0, 1),)],
    ids=["float", "bool", "str entry", "column 2", "column -1", "str column", "term row"],
)
def test_subgroup_class_refuses_malformed_vectors(vector):
    mod = truncated_ring_module(cyclic_ring(2), 2)
    message = r"^vectors must be \{column: int\} maps with columns in \[0, 2\)$"
    with pytest.raises(InputError, match=message):
        mod.subgroup_class([{0: 1}, vector])


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_ideal_image_matches_dense_oracle(data):
    _, mod = data.draw(st.sampled_from(image_modules()), label="module")
    lattice = ideal_power(mod.ring, data.draw(st.integers(0, 4), label="n"))
    assert ideal_image(lattice, mod) == dense_ideal_image(lattice, mod)


@pytest.mark.parametrize("name", [name for name, _ in image_modules()])
def test_ideal_image_matches_dense_oracle_at_every_level(name):
    # ideal_image acts on the module's spanning rows alone, the oracle on
    # every unit vector: at every level the walk of max_nonvanishing_power
    # reads, past the first zero power too
    mod = dict(image_modules())[name]
    levels = ideal_powers(mod.ring, last=POWER_CAP)
    for lattice in itertools.islice(levels, POWER_CAP + 1):
        assert ideal_image(lattice, mod) == dense_ideal_image(lattice, mod)


def spans_the_module(mod) -> bool:
    """Whether the products x e_i, x in mod.spanning and e_i a basis
    element of the ring, with the relations, span all of Z^g."""
    products = [
        fusion._row_times(mod.table, x, ((i, 1),))
        for x in mod.spanning
        for i in range(mod.ring.rank)
    ]
    rows = hermite_terms(products + [dict(row) for row in mod.lattice.terms])
    return rows == tuple([((a, 1),) for a in range(mod.generators)])


@pytest.mark.parametrize("name", [name for name, _ in image_modules()])
def test_builders_state_rows_that_span_the_module(name):
    mod = dict(image_modules())[name]
    assert spans_the_module(mod)
    # never more rows than the unit vectors the oracle acts on
    assert len(mod.spanning) <= mod.generators


# Pairs of TENSOR_FACTORS over one ring, so their Kronecker pieces have
# one ring too and can be summed.
SAME_RING = {"trunc-z2:1": "trunc-z2:3", "trunc:z3:1": "trunc:z3:2", "circle:2": "circle:2"}


@given(
    st.sampled_from(sorted(SAME_RING)),
    st.sampled_from(sorted(SAME_RING)),
    st.sampled_from(TENSOR_FACTORS),
)
@settings(max_examples=20, deadline=None)
def test_sums_and_tensors_of_built_modules_match_dense_oracle_at_every_level(a, b, c):
    # a direct sum of two Kronecker pieces, and its tensor with a third
    # model: the spanning rows are shifted, then paired
    first = kunneth_pieces(model_module(a), model_module(b))[0]
    second = kunneth_pieces(model_module(SAME_RING[a]), model_module(SAME_RING[b]))[0]
    summed = module_direct_sum(first, second)
    for mod in (summed, kunneth_pieces(summed, model_module(c))[0]):
        assert spans_the_module(mod)
        levels = ideal_powers(mod.ring, last=POWER_CAP)
        for lattice in itertools.islice(levels, POWER_CAP + 1):
            assert ideal_image(lattice, mod) == dense_ideal_image(lattice, mod)


def test_public_modules_keep_every_unit_vector():
    # the public constructor knows no smaller generating set
    for _, mod in image_modules():
        relations = [dict(row) for row in mod.lattice.terms]
        again = RingModule(mod.ring, mod.generators, relations, mod.table)
        assert again.spanning == tuple([((a, 1),) for a in range(mod.generators)])
        assert spans_the_module(again)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_factor_ideal_power_and_its_image_match_dense_oracles(data):
    left = model_module(data.draw(st.sampled_from(FACTOR_MODELS), label="left"))
    right = model_module(data.draw(st.sampled_from(FACTOR_MODELS), label="right"))
    m = data.draw(st.integers(0, 4), label="m")
    mod, _ = kunneth_pieces(left, right)
    lattice = factor_ideal_power(mod.ring, left.ring, m)
    want = dense_factor_ideal_power(mod.ring, left.ring, m)
    assert lattice.terms == want.terms
    assert ideal_image(lattice, mod) == dense_ideal_image(want, mod)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stability_matches_dense_oracle(data):
    _, mod = data.draw(st.sampled_from(image_modules()), label="module")
    g = mod.generators
    x = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=g, max_size=g), label="x"))
    n = data.draw(st.integers(0, 3), label="n")
    mult = data.draw(st.integers(1, 6), label="mult")
    lattice = ideal_power(mod.ring, n)
    assert element_stable_nonvanishing(mod, x, lattice, mult) == dense_stable(mod, x, n, mult)
