"""Module layer tests: presentations, images, Kunneth pieces, stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equik.abgroups import FgAbelianGroup, TRIVIAL_GROUP, tensor, tor
from equik.errors import InputError
from equik.fusion import circle_truncation, cyclic_ring, ideal_power, ring_from_tag
from equik.intmat import IntMatrix
from equik.kmodules import (
    GradedModulePair,
    ModelDescriptor,
    ModuleInvariantError,
    RingModule,
    circle_model,
    element_stable_nonvanishing,
    factor_ideal_power,
    graded_kunneth,
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


def test_module_validation_catches_bad_action():
    r = cyclic_ring(2)
    rel = IntMatrix.zeros(0, 2)
    good = truncated_ring_module(r, 2)
    assert good.generators == 2
    # chi acting as a nilpotent matrix breaks chi * chi = 1
    bad_action = (
        IntMatrix.identity(2),
        IntMatrix.from_rows([(0, 1), (0, 0)], cols=2),
    )
    with pytest.raises(ModuleInvariantError) as err:
        RingModule(r, 2, rel, bad_action)
    assert err.value.axiom == "fusion compatibility"


def test_module_validation_catches_bad_unit():
    r = cyclic_ring(2)
    rel = IntMatrix.zeros(0, 1)
    with pytest.raises(ModuleInvariantError) as err:
        RingModule(r, 1, rel, (IntMatrix.from_rows([(2,)], cols=1),) * 2)
    assert err.value.axiom == "unit acts as identity"


def test_module_validation_catches_moving_relations():
    r = cyclic_ring(2)
    # relations <(2, 0)> are not preserved by the swap action of chi
    rel = IntMatrix.from_rows([(2, 0)], cols=2)
    swap = IntMatrix.from_rows([(0, 1), (1, 0)], cols=2)
    with pytest.raises(ModuleInvariantError) as err:
        RingModule(r, 2, rel, (IntMatrix.identity(2), swap))
    assert err.value.axiom == "relations are invariant"


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


def test_module_direct_sum_groups_add():
    a = truncated_ring_module(cyclic_ring(2), 2)
    b = truncated_ring_module(cyclic_ring(2), 1)
    s = module_direct_sum(a, b)
    assert s.underlying_group() == FgAbelianGroup(2, (2,))


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
    lat = factor_ideal_power(cyclic_ring(2), right, m)
    assert ideal_image(lat, mod) == FgAbelianGroup(0, (2,))
    unit = tuple(1 if i == 0 else 0 for i in range(mod.generators))
    assert element_stable_nonvanishing(mod, unit, m, order)
    assert not element_stable_nonvanishing(mod, unit, m, 2)


def test_stability_false_for_matching_multiplier():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    assert not element_stable_nonvanishing(mod, (1, 0), 1, 2)
    assert element_stable_nonvanishing(mod, (1, 0), 1, 3)
    assert element_stable_nonvanishing(mod, (1, 0), 1, 1)


def test_stability_true_for_free_image():
    mod = truncated_ring_module(circle_truncation(3), 3)
    x = (1, 0, 0)
    assert element_stable_nonvanishing(mod, x, 2, 2)
    assert not element_stable_nonvanishing(mod, x, 3, 2)


def test_stability_input_validation():
    mod = truncated_ring_module(cyclic_ring(2), 2)
    with pytest.raises(InputError):
        element_stable_nonvanishing(mod, (1,), 1, 2)
    with pytest.raises(InputError):
        element_stable_nonvanishing(mod, (1, 0), 1, 0)


def test_model_descriptor_parse_render_roundtrip():
    texts = [
        "trunc-z2:3",
        "circle:4",
        "trunc:z5:2",
        "tensor(trunc-z2:2,trunc:z3:1)",
        "tensor(tensor(trunc-z2:1,trunc:z3:1),circle:2)",
    ]
    for text in texts:
        model = ModelDescriptor.parse(text)
        assert model.render() == text
        assert ModelDescriptor.from_json_dict(model.to_json_dict()) == model


def test_model_descriptor_parse_errors():
    for bad in ("trunc-z2", "circle:x", "tensor(a)", "spline:3"):
        with pytest.raises(InputError):
            ModelDescriptor.parse(bad)


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
    assert ModelDescriptor.from_json_dict(model.to_json_dict()) == model
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
    with pytest.raises(InputError):
        ModelDescriptor.from_json_dict({"kind": "spline", "order": "3"})
    with pytest.raises(InputError):
        ModelDescriptor("spline", order=3).render()


def test_act_runs_on_the_right():
    mod = truncated_ring_module(cyclic_ring(3), 2)
    chi = (0, 1, 0)
    e0 = tuple(1 if i == 0 else 0 for i in range(mod.generators))
    moved = mod.act(chi, e0)
    # chi * 1 = chi, so the unit generator moves to the chi generator
    assert moved == (0, 1, 0)


@given(st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_truncation_relations_annihilate(n):
    mod = truncated_ring_module(cyclic_ring(3), n)
    img = ideal_image(ideal_power(cyclic_ring(3), n), mod)
    assert img.is_trivial
