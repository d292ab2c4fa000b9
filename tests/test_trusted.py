"""The builders that skip the constructor checks, against the public constructors.

cyclic_ring, circle_truncation and ring_product, the ideal lattices of
fusion and kmodules, the module builders, and intmat._matrix, which
builds the matrices hnf and snf return, pass _trusted (the rings their
generators, the modules their spanning rows), since the formula they
build by makes the value valid.  The oracle is the public constructor
itself: given the same fields it must accept them and return an equal
value, the ring's generators included.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equik.cli import main
from equik.fusion import (
    BasedRing,
    IdealLattice,
    augmentation_ideal,
    circle_ideal_image,
    circle_truncation,
    cyclic_ring,
    ideal_power,
    ideal_powers,
    ring_product,
)
from equik.intmat import IntMatrix, hnf, kernel_basis, snf
from equik.kmodules import (
    RingModule,
    factor_ideal_power,
    kunneth_pieces,
    module_direct_sum,
    truncated_ring_module,
    zero_module,
)
from test_intmat import pooled_matrices
from test_kmodules import TENSOR_FACTORS, model_module, oracle_modules

ROOT = Path(__file__).resolve().parent.parent


def public_ring(ring):
    again = BasedRing(ring.labels, ring.aug, ring.table, ring.is_fusion)
    assert again == ring
    assert again.generators == ring.generators
    return again


def public_lattice(lattice):
    again = IdealLattice(lattice.ring, terms=lattice.terms)
    assert again == lattice
    return again


def module_fields(mod) -> tuple:
    return mod.ring, mod.generators, mod.table, mod.lattice


def public_module(mod):
    relations = [dict(row) for row in mod.lattice.terms]
    again = RingModule(mod.ring, mod.generators, relations, mod.table)
    assert module_fields(again) == module_fields(mod)
    return again


def public_matrix(mat):
    again = IntMatrix(mat.rows, mat.cols, mat.entries)
    assert again == mat
    return again


BUILDERS = (cyclic_ring, circle_truncation)
rings = st.builds(lambda build, n: build(n), st.sampled_from(BUILDERS), st.integers(1, 12))
small_rings = st.builds(lambda build, n: build(n), st.sampled_from(BUILDERS), st.integers(1, 6))
# one ring, or the product of two, each factor of rank at most 6
small_or_product = st.one_of(small_rings, st.builds(ring_product, small_rings, small_rings))


@given(pooled_matrices())
@settings(max_examples=60, deadline=None)
def test_normal_form_matrices_pass_the_public_check(a):
    res = hnf(a)
    for mat in (res.H, res.transform, *snf(a), kernel_basis(a)):
        public_matrix(mat)


@given(rings)
@settings(max_examples=40, deadline=None)
def test_cyclic_and_circle_rings_pass_the_public_check(ring):
    public_ring(ring)


@given(rings, rings)
@settings(max_examples=25, deadline=None)
def test_products_of_two_rings_pass_the_public_check(left, right):
    public_ring(ring_product(left, right))


@given(small_or_product, st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_every_ideal_power_level_passes_the_public_check(ring, cap):
    public_lattice(IdealLattice.full(ring))
    public_lattice(IdealLattice.zero(ring))
    assert public_lattice(augmentation_ideal(ring)) == ideal_power(ring, 1)
    for n, level in enumerate(ideal_powers(ring, last=cap)):
        assert public_lattice(level) == public_lattice(ideal_power(ring, n))
        if n == cap or level.rank == 0:
            break


@given(st.integers(1, 12), st.integers(0, 14))
@settings(max_examples=40, deadline=None)
def test_circle_ideal_images_pass_the_public_check(n, j):
    public_lattice(circle_ideal_image(n, j))


@given(small_rings, small_rings, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_factor_ideal_powers_pass_the_public_check(left, right, m):
    public_lattice(factor_ideal_power(ring_product(left, right), left, m))


@pytest.mark.parametrize("name", [name for name, _ in oracle_modules()])
def test_oracle_modules_pass_the_public_check(name):
    # model truncations, tensor pieces of pairs of them and direct sums
    mod = dict(oracle_modules())[name]
    public_module(mod)
    public_module(zero_module(mod.ring))
    public_module(module_direct_sum(mod, mod))


@pytest.mark.parametrize("text", TENSOR_FACTORS)
@pytest.mark.parametrize("n", (0, 1, 3))
def test_truncations_and_tensor_pieces_pass_the_public_check(text, n):
    left = model_module(text)
    right = public_module(truncated_ring_module(left.ring, n))
    public_module(kunneth_pieces(left, right)[0])
    public_module(kunneth_pieces(right, left)[0])


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses reads the module's namespace
    spec.loader.exec_module(module)
    return module


def test_every_value_the_workloads_derive_passes_the_public_check(monkeypatch, capsys):
    # Each trusted construction in the lattice and certify requests (joins
    # builds no ring) is rebuilt by the public constructor and compared.
    checked = {BasedRing: 0, IdealLattice: 0, RingModule: 0}
    for cls, public in (
        (BasedRing, public_ring), (IdealLattice, public_lattice), (RingModule, public_module)
    ):
        def init(self, *args, real=cls.__init__, public=public, cls=cls, **kw):
            real(self, *args, **kw)
            if kw.get("_trusted") not in (None, False):
                public(self)
                checked[cls] += 1

        monkeypatch.setattr(cls, "__init__", init)
    workloads = load_workloads()
    requests = [task.argv for task in workloads.lattice_fixed_tasks()]
    requests += list(workloads.README_EXAMPLES)
    requests += [("rokhlin", *c, "--json") for c in workloads.CONSTRUCTIONS]
    for argv in requests:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    assert all(checked.values()), checked
