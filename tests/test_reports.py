"""Report builder and validation tests.

Every builder's output must survive validate(), and forged variants of
the same reports must not.  Serialization uses decimal strings for all
integers and the string "infinity" for a missing upper bound.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from equik.abgroups import FgAbelianGroup
from equik.errors import InputError, UnsupportedError
from equik.reports import (
    AnnihilatorWitness,
    BoundReport,
    CollapseReport,
    CommutativeDimension,
    DimBound,
    ExistenceReport,
    INFINITY,
    IndexWitness,
    JoinFactorWitness,
    RuleApplication,
    circle_ah_dimension,
    circle_product_dimension,
    commutative_dimension,
    finite_af_bounds,
    is_infinite,
    product_z2_bounds,
    render_bound,
    report_from_json_dict,
    report_to_json_dict,
    Stability,
    report_lines,
    rokhlin_factor_bound,
    rule_report,
    tensor_rule,
    unknown_bound,
    validate,
    validate_bound,
    z2_af_bounds,
    z6_collapse_report,
)


def roundtrip(report):
    return report_from_json_dict(json.loads(json.dumps(report_to_json_dict(report))))


def all_leaves_are_strings(obj):
    if isinstance(obj, dict):
        return all(all_leaves_are_strings(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_leaves_are_strings(v) for v in obj)
    return isinstance(obj, (str, bool)) or obj is None


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_z2_bounds(m):
    report = z2_af_bounds(m)
    assert report.lower == m
    assert report.upper == 2 * m + 2
    assert isinstance(report.bound.lower_certificate, AnnihilatorWitness)
    assert report.bound.lower_certificate.nonzero_group == FgAbelianGroup(0, (2,))
    assert report.bound.upper_certificate == JoinFactorWitness(2 * m + 3)
    assert validate(report)


def test_z2_bounds_input_validation():
    with pytest.raises(InputError):
        z2_af_bounds(0)


@pytest.mark.parametrize("d", [0, 1, 2, 4])
def test_circle_dimension(d):
    report = circle_ah_dimension(d)
    assert (report.lower, report.upper) == (d, d)
    cert = report.bound.lower_certificate
    assert cert.stability is not None
    assert cert.stability.multiplier == 2
    assert validate(report)


def test_circle_witness_walks_each_ideal_power_once(monkeypatch):
    # The module is the ring modulo I^(d+1); the witness's image and its
    # stability check share one walk to I^d.
    from equik import kmodules, reports

    walks = []
    for namespace in (kmodules, reports):
        real = namespace.ideal_power
        monkeypatch.setattr(
            namespace, "ideal_power", lambda ring, n, real=real: walks.append(n) or real(ring, n)
        )
    circle_ah_dimension(5)
    assert sorted(walks) == [5, 6]


def test_left_factor_stability_reads_the_full_ideal_power():
    # On tensor(trunc:z2:3,trunc:z3:2) the left factor's J = I(z2) x R(z3)
    # gives J.M = J.e_0 = Z_4, which doubling kills; the full I.e_0 is
    # Z_12, whose Z_3 (from the right factor's ideal) doubling keeps.  The
    # witness checks stability on the full I^1, so it validates.
    from equik.kmodules import ModelDescriptor, element_stable_nonvanishing
    from equik.kmodules import factor_ideal_power, ideal_image
    from equik.fusion import ideal_power

    model = ModelDescriptor.parse("tensor(trunc:z2:3,trunc:z3:2)")
    module = model.instantiate()
    e0 = tuple(int(i == 0) for i in range(module.generators))
    left = factor_ideal_power(module.ring, model.left.ring_of(), 1)
    full = ideal_power(module.ring, 1)

    def on_e0(lattice):
        vectors = [{j: e for j, e in enumerate(module.act(b, e0)) if e} for b in lattice.rows()]
        return module.subgroup_class(vectors)

    z4 = FgAbelianGroup(0, (4,))
    assert ideal_image(left, module) == on_e0(left) == z4
    assert on_e0(full) == FgAbelianGroup(0, (12,))
    assert not element_stable_nonvanishing(module, e0, left, 2)
    assert element_stable_nonvanishing(module, e0, full, 2)
    witness = AnnihilatorWitness("z2xz3", 1, model, "left-factor", z4, Stability(2, e0))
    assert validate_bound(DimBound(1, INFINITY, witness))


@pytest.mark.parametrize("group", ["z3", "z5", "z3xz3"])
def test_product_z2_bounds(group):
    report = product_z2_bounds(2, group)
    assert (report.lower, report.upper) == (2, 6)
    cert = report.bound.lower_certificate
    assert cert.scope == "left-factor"
    assert cert.nonzero_group == FgAbelianGroup(0, (2,))
    assert validate(report)


@pytest.mark.parametrize("group", ["z2", "z4", "z2xz3"])
def test_product_z2_rejects_even_order(group):
    with pytest.raises(InputError) as err:
        product_z2_bounds(2, group)
    assert "coprime" in str(err.value)


def test_circle_product_dimension():
    report = circle_product_dimension(2, "z5")
    assert (report.lower, report.upper) == (2, 2)
    assert report.bound.upper_certificate.rule == "absorb"
    assert validate(report)


def test_tensor_rule_sum():
    out = tensor_rule("sum", DimBound(1, 4), DimBound(2, 6))
    assert (out.lower, out.upper) == (0, 10)
    assert validate_bound(out)
    with_inf = tensor_rule("sum", DimBound(0, INFINITY), DimBound(0, 3))
    assert is_infinite(with_inf.upper)
    assert validate_bound(with_inf)


def test_tensor_rule_unit_laws():
    zero = rokhlin_factor_bound()
    anything = DimBound(0, 7, None, JoinFactorWitness(8))
    summed = tensor_rule("sum", anything, zero)
    assert summed.upper == 7
    absorbed = tensor_rule("absorb", anything, zero)
    assert absorbed.upper == 7
    unknown = unknown_bound()
    assert tensor_rule("min", unknown, anything).upper == 7
    assert is_infinite(tensor_rule("sum", unknown, anything).upper)


def test_tensor_rule_absorb_precondition():
    with pytest.raises(InputError):
        tensor_rule("absorb", DimBound(0, 3), DimBound(0, 1))
    with pytest.raises(InputError):
        tensor_rule("absorb", DimBound(0, 3), DimBound(0, INFINITY))
    with pytest.raises(InputError):
        tensor_rule("mystery", DimBound(0, 1), DimBound(0, 1))


def test_rule_report_validates():
    report = rule_report("min", DimBound(0, INFINITY), DimBound(0, 0))
    assert report.upper == 0
    assert validate(report)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_z6_collapse(d):
    report = z6_collapse_report(d)
    for factor in report.factors:
        assert factor.bound.lower > d
    assert report.product.bound.lower == 0
    assert report.product.bound.upper == 0
    assert is_infinite(report.factors[1].bound.upper)
    assert validate(report)


@pytest.mark.parametrize("group,k", [("z2", 1), ("z2", 4), ("z3", 3), ("s1", 6)])
def test_commutative_dimension(group, k):
    result = commutative_dimension(group, k)
    assert result.dim == k - 1
    assert result.ind == k
    assert validate(result)


def test_commutative_unsupported_group():
    with pytest.raises(UnsupportedError):
        commutative_dimension("sl2", 3)
    with pytest.raises(InputError):
        commutative_dimension("z2", 0)


def test_trivial_group_bounds_are_refused_past_dimension_zero():
    # z1's actions all have dimension 0 and its joins are simplices, of index 1
    result = commutative_dimension("z1", 1)
    assert (result.dim, result.ind) == (0, 1) and validate(result)
    for k in (2, 5):
        with pytest.raises(InputError, match="trivial group"):
            commutative_dimension("z1", k)
        witness = IndexWitness("z1", k, k)
        assert not validate_bound(DimBound(k - 1, k - 1, witness, witness))
    for tag in ("z1", "z1xz1"):
        with pytest.raises(InputError, match="trivial group"):
            finite_af_bounds(tag, 2)
    with pytest.raises(UnsupportedError):
        commutative_dimension("z2xz3", 2)


def test_finite_af_delegates_for_order_two():
    report = finite_af_bounds("z2", 2)
    assert isinstance(report, BoundReport)
    assert (report.lower, report.upper) == (3, 8)
    assert report.construction == "finite-af"
    assert validate(report)


def test_finite_af_existence_only_otherwise():
    report = finite_af_bounds("z5", 3)
    assert isinstance(report, ExistenceReport)
    assert report.outcome == "existence-only"
    assert validate(report)
    with pytest.raises(InputError):
        finite_af_bounds("z2", 0)


def test_validate_rejects_inverted_interval():
    assert not validate_bound(DimBound(3, 1))


def test_validate_requires_lower_certificate():
    assert not validate_bound(DimBound(2, INFINITY))
    assert validate_bound(DimBound(0, INFINITY))


def test_validate_requires_upper_certificate():
    assert not validate_bound(DimBound(0, 4))
    assert validate_bound(DimBound(0, 4, None, JoinFactorWitness(5)))


def test_forged_power_is_rejected():
    report = z2_af_bounds(2)
    d = report_to_json_dict(report)
    d["lower"] = "5"
    for cert in d["certificates"]:
        if cert["role"] == "lower":
            cert["power"] = "5"
    assert not validate(report_from_json_dict(d))


def test_bare_bound_with_huge_power_is_rejected_at_once():
    from equik.kmodules import ModelDescriptor

    cert = AnnihilatorWitness(
        "circle:2", 10**12, ModelDescriptor("circle", 2), "full", FgAbelianGroup(1, ())
    )
    assert not validate_bound(DimBound(10**12, INFINITY, cert))


def test_forged_witness_group_is_rejected():
    report = z2_af_bounds(2)
    d = report_to_json_dict(report)
    for cert in d["certificates"]:
        if cert["role"] == "lower":
            cert["nonzero_group"] = {"free_rank": "1", "torsion": []}
    assert not validate(report_from_json_dict(d))


def test_forged_join_copies_are_rejected():
    report = z2_af_bounds(2)
    d = report_to_json_dict(report)
    for cert in d["certificates"]:
        if cert["role"] == "upper":
            cert["copies"] = "3"
    assert not validate(report_from_json_dict(d))


def test_forged_index_is_rejected():
    result = commutative_dimension("z2", 3)
    d = report_to_json_dict(result)
    d["lower"] = "4"
    d["upper"] = "4"
    for cert in d["certificates"]:
        cert["ind"] = "5"
        cert["copies"] = "5"
    assert not validate(report_from_json_dict(d))


def test_forged_rule_output_is_rejected():
    report = rule_report("sum", DimBound(0, 2, None, JoinFactorWitness(3)),
                         DimBound(0, 2, None, JoinFactorWitness(3)))
    d = report_to_json_dict(report)
    d["upper"] = "3"
    assert not validate(report_from_json_dict(d))


def test_serialization_roundtrips():
    reports = [
        z2_af_bounds(2),
        circle_ah_dimension(2),
        product_z2_bounds(1, "z3"),
        circle_product_dimension(1, "z3"),
        z6_collapse_report(1),
        finite_af_bounds("z2", 1),
        finite_af_bounds("z7", 1),
        rule_report("sum", DimBound(0, 1, None, JoinFactorWitness(2)),
                    DimBound(0, 1, None, JoinFactorWitness(2))),
    ]
    for report in reports:
        again = roundtrip(report)
        assert validate(again)
        assert report_to_json_dict(again) == report_to_json_dict(report)


def test_commutative_serialization_carries_index():
    result = commutative_dimension("z3", 4)
    d = report_to_json_dict(result)
    assert d["ind"] == "4"
    assert validate(report_from_json_dict(d))


def test_serialized_integers_are_decimal_strings():
    for report in (z2_af_bounds(2), z6_collapse_report(1)):
        assert all_leaves_are_strings(report_to_json_dict(report))


def test_infinity_serializes_as_string():
    d = report_to_json_dict(z6_collapse_report(1))
    uppers = [f["upper"] for f in d["factors"]]
    assert "infinity" in uppers


def test_report_lines_per_report_shape():
    assert report_lines(z2_af_bounds(2)) == ["lower 2 (witness Z_2), upper 6 (join k=7)"]
    assert report_lines(commutative_dimension("z2", 3)) == ["dim 2, ind 3"]
    assert report_lines(z6_collapse_report(0))[:3] == [
        "factor 1: lower 1 (witness Z_2), upper 4 (join k=5)",
        "factor 2: lower 1 (witness Z_3), upper infinity",
        "product: lower 0, upper 0 (rule min)",
    ]
    assert report_lines(z6_collapse_report(0))[3].startswith("finding: both factor lower")
    existence = finite_af_bounds("z5", 2)
    assert report_lines(existence) == [f"existence-only: {existence.note}"]


def test_render_bound_formats():
    assert render_bound(z2_af_bounds(2).bound) == (
        "lower 2 (witness Z_2), upper 6 (join k=7)"
    )
    assert render_bound(DimBound(0, INFINITY)) == "lower 0, upper infinity"


def test_validate_rejects_unknown_payload():
    with pytest.raises(InputError):
        validate({"not": "a report"})
    with pytest.raises(InputError):
        report_from_json_dict({"lower": "0"})


def _edited(report, change):
    doc = report_to_json_dict(report)
    change(doc)
    return report_from_json_dict(doc)


def _cert(doc, role):
    return next(c for c in doc["certificates"] if c["role"] == role)


def _cut_upper(doc):
    doc["upper"] = "2"
    _cert(doc, "upper")["copies"] = "3"


FORGED = {
    "upper-cut-with-matching-join-copies": (lambda: z2_af_bounds(2), _cut_upper),
    "unknown-construction-name": (
        lambda: z2_af_bounds(2),
        lambda doc: doc.update(construction="z7-af"),
    ),
    "existence-only-with-rejected-parameters": (
        lambda: finite_af_bounds("z5", 2),
        lambda doc: doc.update(parameters={"group": "q9", "n": "-7"}),
    ),
    "collapse-factor-parameter-edited": (
        lambda: z6_collapse_report(1),
        lambda doc: doc["factors"][0]["parameters"].update(m="99"),
    ),
}


@pytest.mark.parametrize("name", sorted(FORGED))
def test_report_not_rebuilt_by_its_construction_is_rejected(name):
    build, change = FORGED[name]
    assert not validate(_edited(build(), change))


def test_weakened_lower_bound_is_rejected_because_a_report_must_be_exactly_its_construction():
    # lower 1 still follows from the power-2 witness, but z2-af with m=2
    # builds lower 2, so the report is not what its construction produces
    forged = _edited(z2_af_bounds(2), lambda doc: doc.update(lower="1"))
    assert not validate(forged)


def test_non_decimal_parameter_is_input_error():
    forged = _edited(z2_af_bounds(2), lambda doc: doc["parameters"].update(m="two"))
    with pytest.raises(InputError):
        validate(forged)


def test_tensor_rule_rebuilds_from_its_rule_certificate():
    report = rule_report("sum", DimBound(1, 3), DimBound(2, INFINITY))
    assert report_to_json_dict(report)["parameters"] == {"rule": "sum"}
    assert validate(roundtrip(report))

    def edit_input_only(doc):
        _cert(doc, "upper")["inputs"][1]["upper"] = "4"

    assert not validate(_edited(report, edit_input_only))


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(lower="abc"),
        lambda doc: _cert(doc, "lower").pop("power"),
        lambda doc: doc.update(certificates=5),
    ],
    ids=["bad-integer", "missing-power", "certificates-not-a-list"],
)
def test_malformed_report_object_is_input_error(change):
    doc = report_to_json_dict(z2_af_bounds(2))
    change(doc)
    with pytest.raises(InputError):
        validate(doc)


def test_circle_dimension_instantiates_its_model_once(monkeypatch):
    from equik.kmodules import ModelDescriptor

    calls = []
    original = ModelDescriptor.instantiate

    def counting(self):
        calls.append(self.kind)
        return original(self)

    monkeypatch.setattr(ModelDescriptor, "instantiate", counting)
    circle_ah_dimension(3)
    assert calls == ["circle"]


@pytest.mark.parametrize(
    "bound",
    [
        DimBound(0, 2, None, RuleApplication("sum", ((1, 3), (2, -1)))),
        DimBound(0, 0, None, RuleApplication("min", ((4, 2), (0, 0)))),
        DimBound(0, 3, None, RuleApplication("absorb", ((0, 3), (5, 0)))),
    ],
    ids=["sum", "min", "absorb"],
)
def test_bare_rule_certificate_with_an_incoherent_input_is_rejected(bound):
    # the rule's arithmetic gives the claimed upper, but one input has
    # lower above upper, which tensor_rule refuses to combine
    assert not validate(bound)


def test_bare_bound_whose_check_raises_is_invalid_not_an_error():
    from equik.kmodules import ModelDescriptor

    cert = AnnihilatorWitness(
        "sl2", 1, ModelDescriptor("trunc", 1, "sl2"), "full", FgAbelianGroup(0, (2,))
    )
    with pytest.raises(UnsupportedError):
        cert.model.instantiate()
    assert validate(DimBound(1, INFINITY, cert)) is False


@pytest.mark.parametrize("k,checks", [(6, 1), (7, 0)])
def test_z2_sphere_check_runs_only_while_the_oracle_is_feasible(monkeypatch, k, checks):
    # The check runs when its join fits the work budget, here set to the
    # 400 units for each of the 6 * 2 * 3^5 boundary nonzeros at k = 6.
    import equik.errors
    import equik.reports

    monkeypatch.setattr(equik.errors, "WORK_BUDGET", 400 * 6 * 2 * 3**5)
    calls = []
    original = equik.reports.reduced_homology

    def counting(jc):
        calls.append(jc.parts)
        return original(jc)

    monkeypatch.setattr(equik.reports, "reduced_homology", counting)
    commutative_dimension("z2", k)
    assert calls == [k] * checks


def gallery_reports():
    """(name, report) for every report scripts/bounds_gallery.py yields."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "bounds_gallery.py"
    spec = importlib.util.spec_from_file_location("bounds_gallery", path)
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    return gallery.gallery(gallery.GalleryConfig())


def _gallery_bounds():
    """(name, bound) for every report scripts/bounds_gallery.py yields."""
    out = []
    for name, report in gallery_reports():
        if isinstance(report, CommutativeDimension):
            report = report.report
        if isinstance(report, CollapseReport):
            out += [(f"{name}-{f.parameters['side']}", f.bound) for f in report.factors]
            report = report.product
        if isinstance(report, BoundReport):
            out.append((name, report.bound))
    return out


@pytest.fixture(scope="module")
def gallery_bounds():
    return _gallery_bounds()


def _annihilator_bounds(bounds):
    return [
        (name, bound)
        for name, bound in bounds
        if isinstance(bound.lower_certificate, AnnihilatorWitness)
    ]


def test_every_gallery_bound_validates_on_the_bare_path(gallery_bounds):
    assert len(_annihilator_bounds(gallery_bounds)) >= 15
    assert [name for name, bound in gallery_bounds if not validate_bound(bound)] == []


def test_bare_path_rejects_a_changed_witness_group(gallery_bounds):
    for name, bound in _annihilator_bounds(gallery_bounds):
        cert = bound.lower_certificate
        group = cert.nonzero_group
        forged = cert._replace(nonzero_group=FgAbelianGroup(group.free_rank + 1, group.torsion))
        assert not validate_bound(bound._replace(lower_certificate=forged)), name


def test_bare_path_rejects_a_lower_bound_above_the_witness_power(gallery_bounds):
    for name, bound in _annihilator_bounds(gallery_bounds):
        power = bound.lower_certificate.power
        # drop the upper claim so only the lower certificate decides
        at_power = bound._replace(lower=power, upper=INFINITY, upper_certificate=None)
        assert validate_bound(at_power), name
        assert not validate_bound(at_power._replace(lower=power + 1)), name


def test_bare_path_rejects_a_product_z2_witness_with_an_even_multiplier(gallery_bounds):
    product_z2 = [
        (name, bound)
        for name, bound in _annihilator_bounds(gallery_bounds)
        if name.startswith("product-z2-")
    ]
    assert len(product_z2) == 4
    for name, bound in product_z2:
        cert = bound.lower_certificate
        assert cert.nonzero_group == FgAbelianGroup(0, (2,))
        forged = cert._replace(stability=cert.stability._replace(multiplier=2))
        assert not validate_bound(bound._replace(lower_certificate=forged)), name


def test_bare_path_rejects_a_witness_ring_other_than_its_models(gallery_bounds):
    bound = z2_af_bounds(2).bound
    forged = bound.lower_certificate._replace(ring="q9")
    assert validate_bound(bound)
    assert not validate_bound(bound._replace(lower_certificate=forged))
    for name, bound in _annihilator_bounds(gallery_bounds):
        cert = bound.lower_certificate
        for ring in ("q9", cert.ring + "x", cert.ring.upper()):
            forged = cert._replace(ring=ring)
            assert not validate_bound(bound._replace(lower_certificate=forged)), (name, ring)
