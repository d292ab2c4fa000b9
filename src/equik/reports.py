"""Certified dimension-bound reports for named action constructions.

Each report carries a bound interval plus certificates.  Lower
certificates are recomputable algebra: an ideal-power image on a named
K-theory model that comes out nonzero (optionally stable under the
connecting multiplier).  Upper certificates are structural: a join
factor count, a combination rule, or an index value.  CONSTRUCTIONS
names every construction; validate() rebuilds a report from its name
and parameters and accepts it only if the rebuild is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .abgroups import FgAbelianGroup
from .errors import EquikError, InputError, UnsupportedError
from .fusion import (
    cyclic_ring,
    ideal_power,
    regular_dimension,
    ring_from_tag,
)
from .joins import build_join_complex, reduced_homology
from .kmodules import (
    ModelDescriptor,
    circle_model,
    element_stable_nonvanishing,
    factor_ideal_power,
    ideal_image,
    tensor_model,
    trunc_model,
    trunc_z2_model,
)


class _InfinityType:
    """Distinguished 'no upper bound' value; compares bigger than any int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITY = _InfinityType()


def is_infinite(value) -> bool:
    return isinstance(value, _InfinityType)


def upper_le(a, b) -> bool:
    if is_infinite(b):
        return True
    if is_infinite(a):
        return False
    return a <= b


def upper_add(a, b):
    if is_infinite(a) or is_infinite(b):
        return INFINITY
    return a + b


def upper_min(a, b):
    if is_infinite(a):
        return b
    if is_infinite(b):
        return a
    return min(a, b)


def _upper_str(value) -> str:
    return "infinity" if is_infinite(value) else str(value)


def _upper_from_str(text):
    if text in ("infinity", "inf"):
        return INFINITY
    return int(text)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stability:
    """Connecting-map data: multiplier and the tracked module element."""

    multiplier: int
    element: tuple


@dataclass(frozen=True)
class AnnihilatorWitness:
    """Nonzero image of an ideal power on a concrete module.

    scope 'full' acts by the n-th power of the whole augmentation ideal;
    scope 'left-factor' acts by (I(left) x right)^n on a tensor model.
    """

    ring: str
    power: int
    model: ModelDescriptor
    scope: str
    nonzero_group: FgAbelianGroup
    stability: Stability | None = None


@dataclass(frozen=True)
class JoinFactorWitness:
    """A model built from a k-fold self-join caps the dimension at k - 1."""

    copies: int


@dataclass(frozen=True)
class IndexWitness:
    """Commutative case: dimension equals the join index minus one."""

    group: str
    copies: int
    ind: int


@dataclass(frozen=True)
class RuleApplication:
    """Combination rule applied to input bound summaries (lower, upper)."""

    rule: str
    inputs: tuple


@dataclass(frozen=True)
class DimBound:
    lower: int
    upper: object  # int or INFINITY
    lower_certificate: object = None
    upper_certificate: object = None


@dataclass(frozen=True)
class Citation:
    tag: str
    statement: str


_STATEMENTS = {
    "lower-criterion": (
        "a nonzero image of the n-th augmentation-ideal power on an "
        "invariant K-theory model forces the dimension to be at least n"
    ),
    "join-annihilation": (
        "the d-th augmentation-ideal power annihilates the equivariant "
        "K-theory of the d-fold self-join of the group"
    ),
    "join-upper": (
        "an equivariant factorisation through the k-fold self-join caps "
        "the dimension at k - 1"
    ),
    "z2-join-model": (
        "for the order-2 group, the (2l+1)-fold self-join has K-theory "
        "model the character ring modulo the l-th ideal power"
    ),
    "circle-join-model": (
        "for the circle, the n-fold self-join has K-theory model the "
        "truncated character ring of order n, with connecting maps "
        "doubling classes"
    ),
    "kunneth-split": (
        "over a product, the K-theory model splits into a tensor piece "
        "over the product ring and a torsion-product piece"
    ),
    "stability-criterion": (
        "a free class, or torsion coprime to the connecting multiplier, "
        "survives every connecting step of the inductive limit"
    ),
    "sum-rule": "upper bounds of tensor factors add",
    "min-rule": "a diagonal tensor is bounded by the smaller factor bound",
    "absorb-rule": (
        "tensoring with an action that already has the dimension-zero "
        "property keeps the first factor's upper bound"
    ),
    "index-rule": (
        "for the canonical commutative model on a k-fold self-join the "
        "dimension equals the join index k minus one"
    ),
    "finiteness-only": (
        "some ideal power eventually acts nonzero on a large enough join "
        "model, giving finiteness with no effective constant"
    ),
    "collapse-finding": (
        "upper bounds for a product action cannot be propagated from "
        "factor lower bounds: a dimension-zero factor collapses the "
        "product while both factors stay above any prescribed level"
    ),
}


def _cite(*tags) -> tuple:
    return tuple(Citation(tag, _STATEMENTS[tag]) for tag in tags)


@dataclass
class BoundReport:
    construction: str
    parameters: dict
    bound: DimBound
    citations: tuple

    @property
    def lower(self):
        return self.bound.lower

    @property
    def upper(self):
        return self.bound.upper


@dataclass
class CollapseReport:
    construction: str
    parameters: dict
    factors: tuple
    product: BoundReport
    finding: str
    citations: tuple


@dataclass
class ExistenceReport:
    construction: str
    parameters: dict
    note: str
    citations: tuple

    outcome = "existence-only"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _full_power_witness(ring: str, model: ModelDescriptor, module, power: int, stability=None):
    """Witness for the full power of ring's ideal on module, an instance of model."""
    image = ideal_image(ideal_power(module.ring, power), module)
    if image.is_trivial:
        raise InputError(
            f"ideal power {power} acts trivially on {model.render()}; no witness"
        )
    if stability is not None:
        ok = element_stable_nonvanishing(
            module, stability.element, power, stability.multiplier
        )
        if not ok:
            raise InputError("stability check failed for the requested witness")
    return AnnihilatorWitness(ring, power, model, "full", image, stability)


def _factor_power_witness(ring: str, model: ModelDescriptor, power: int, multiplier: int):
    """Witness for (I(left) x right)^power on the tensor model left x right."""
    module = model.instantiate()
    lattice = factor_ideal_power(model.left.ring_of(), model.right.ring_of(), power)
    image = ideal_image(lattice, module)
    if image.is_trivial:
        raise InputError("factor ideal power acts trivially; no witness")
    unit = tuple(1 if i == 0 else 0 for i in range(module.generators))
    stability = Stability(multiplier, unit)
    if not element_stable_nonvanishing(module, unit, power, multiplier):
        raise InputError("stability check failed for the factor witness")
    return AnnihilatorWitness(ring, power, model, "left-factor", image, stability)


def z2_af_bounds(m: int) -> BoundReport:
    """Order-2 group on a UHF-model algebra: lower m, upper 2m + 2."""
    if m < 1:
        raise InputError("z2 construction needs m >= 1")
    model = trunc_z2_model(m + 1)
    witness = _full_power_witness("z2", model, model.instantiate(), m)
    bound = DimBound(m, 2 * m + 2, witness, JoinFactorWitness(2 * m + 3))
    return BoundReport(
        "z2-af",
        {"m": str(m)},
        bound,
        _cite("lower-criterion", "z2-join-model", "join-upper"),
    )


def circle_ah_dimension(d: int) -> BoundReport:
    """Circle action with exact dimension d on a limit of join models."""
    if d < 0:
        raise InputError("circle construction needs d >= 0")
    model = circle_model(d + 1)
    module = model.instantiate()
    unit = tuple(1 if i == 0 else 0 for i in range(module.generators))
    stability = Stability(2, unit)
    witness = _full_power_witness(f"circle:{d + 1}", model, module, d, stability)
    bound = DimBound(d, d, witness, JoinFactorWitness(d + 1))
    return BoundReport(
        "circle-ah",
        {"d": str(d)},
        bound,
        _cite(
            "lower-criterion", "circle-join-model", "stability-criterion", "join-upper"
        ),
    )


def product_z2_bounds(m: int, group: str) -> BoundReport:
    """Order-2 times an odd-order group: lower m, upper 2m + 2.

    The group must have odd regular dimension; the witness torsion has
    order 2, which stays coprime to the odd connecting multiplier.
    """
    if m < 1:
        raise InputError("product construction needs m >= 1")
    order = regular_dimension(ring_from_tag(group))
    if order % 2 == 0:
        raise InputError(
            f"group {group!r} has even regular dimension {order}: the order-2 "
            "witness torsion must stay coprime to the connecting multiplier, "
            "so only odd-order factors are admitted"
        )
    model = tensor_model(trunc_model("z2", m + 1), trunc_model(group, 1))
    witness = _factor_power_witness(f"z2x{group}", model, m, order)
    bound = DimBound(m, 2 * m + 2, witness, JoinFactorWitness(2 * m + 3))
    return BoundReport(
        "product-z2",
        {"m": str(m), "group": group},
        bound,
        _cite(
            "lower-criterion", "kunneth-split", "stability-criterion", "join-upper"
        ),
    )


def circle_product_dimension(d: int, group: str) -> BoundReport:
    """Circle times a finite group: exact dimension d.

    Lower bound from the circle factor's ideal acting on the tensor
    model; upper bound by absorbing a dimension-zero tensor factor.
    """
    if d < 0:
        raise InputError("circle product needs d >= 0")
    ring_from_tag(group)  # rejects an unknown tag before any model is built
    model = tensor_model(circle_model(d + 1), trunc_model(group, 1))
    witness = _factor_power_witness(f"prod(circle:{d + 1},{group})", model, d, 2)
    rule = RuleApplication("absorb", ((d, d), (0, 0)))
    bound = DimBound(d, d, witness, rule)
    return BoundReport(
        "circle-product",
        {"d": str(d), "group": group},
        bound,
        _cite(
            "lower-criterion", "kunneth-split", "circle-join-model", "absorb-rule"
        ),
    )


def _as_bound(b) -> DimBound:
    if isinstance(b, DimBound):
        return b
    if isinstance(b, BoundReport):
        return b.bound
    raise InputError("expected a DimBound or a report carrying one")


def tensor_rule(rule: str, b1, b2) -> DimBound:
    """Combine two bounds; only the upper bound propagates.

    'sum' adds the uppers, 'min' takes the smaller, 'absorb' requires the
    second bound to be 0 and keeps the first upper.  The output lower is
    always 0: lower bounds never propagate through tensor products.
    """
    b1, b2 = _as_bound(b1), _as_bound(b2)
    inputs = ((b1.lower, b1.upper), (b2.lower, b2.upper))
    if rule == "sum":
        upper = upper_add(b1.upper, b2.upper)
    elif rule == "min":
        upper = upper_min(b1.upper, b2.upper)
    elif rule == "absorb":
        if is_infinite(b2.upper) or b2.upper != 0:
            raise InputError(
                "absorb needs the second factor to have upper bound 0"
            )
        upper = b1.upper
    else:
        raise InputError(f"unknown tensor rule {rule!r}")
    return DimBound(0, upper, None, RuleApplication(rule, inputs))


def rule_report(rule: str, b1, b2) -> BoundReport:
    """tensor_rule wrapped as a full report with the rule's citation."""
    bound = tensor_rule(rule, b1, b2)
    return BoundReport("tensor-rule", {"rule": rule}, bound, _cite(f"{rule}-rule"))


def rokhlin_factor_bound() -> DimBound:
    """A factor built with the dimension-zero property (single-join model)."""
    return DimBound(0, 0, None, JoinFactorWitness(1))


def unknown_bound() -> DimBound:
    return DimBound(0, INFINITY, None, None)


def z6_collapse_report(d: int) -> CollapseReport:
    """Two order-6 factor actions above level d whose product collapses to 0.

    Factor one runs the order-2 side of the product construction, factor
    two mirrors it on the order-3 side (no upper bound there).  The
    product regroups so one tensor factor has the dimension-zero
    property, and the min rule collapses the product bound to {0, 0}.
    """
    if d < 0:
        raise InputError("collapse example needs d >= 0")
    m = d + 1
    factor_one = product_z2_bounds(m, "z3")
    factor_one.construction = "z6-collapse-factor"
    factor_one.parameters = {"side": "z2", "m": str(m), "group": "z3"}
    model_two = tensor_model(trunc_model("z3", m + 1), trunc_model("z2", 1))
    witness_two = _factor_power_witness("z3xz2", model_two, m, 2)
    factor_two = BoundReport(
        "z6-collapse-factor",
        {"side": "z3", "m": str(m), "group": "z2"},
        DimBound(m, INFINITY, witness_two, None),
        _cite("lower-criterion", "kunneth-split", "stability-criterion"),
    )
    product_bound = tensor_rule("min", unknown_bound(), rokhlin_factor_bound())
    product = BoundReport(
        "z6-collapse-product",
        {"d": str(d)},
        product_bound,
        _cite("min-rule"),
    )
    finding = (
        f"both factor lower bounds are {m} > {d}, yet the regrouped product "
        "has a dimension-zero tensor factor, so the product bound is {0, 0}"
    )
    return CollapseReport(
        "z6-collapse",
        {"d": str(d)},
        (factor_one, factor_two),
        product,
        finding,
        _cite("collapse-finding"),
    )


def _commutative_tag_ok(tag: str) -> bool:
    if tag == "s1":
        return True
    if tag.startswith("z"):
        try:
            return int(tag[1:]) >= 1
        except ValueError:
            return False
    return False


def _sphere_check_feasible(copies: int) -> bool:
    """Total face count of the 2-point join is 3^k - 1; keep it small."""
    return 3 ** copies <= 1000


def _z2_join_is_sphere(k: int) -> bool:
    """k-fold join of two points is the (k-1)-sphere; check its homology."""
    betti = reduced_homology(build_join_complex(2, k))
    for deg, group in enumerate(betti.groups):
        expected = FgAbelianGroup(1, ()) if deg == k - 1 else FgAbelianGroup(0, ())
        if group != expected:
            return False
    return True


@dataclass(frozen=True)
class CommutativeDimension:
    dim: int
    ind: int
    report: BoundReport


def commutative_dimension(group: str, copies: int):
    """Canonical action on the k-fold self-join: dimension k - 1, index k."""
    if copies < 1:
        raise InputError("join copies must be >= 1")
    if not _commutative_tag_ok(group):
        raise UnsupportedError(
            f"no commutative join model for group tag {group!r}; "
            "supported: z<n> and s1"
        )
    if group == "z2" and _sphere_check_feasible(copies):
        if not _z2_join_is_sphere(copies):
            raise InputError("sphere cross-check failed for the order-2 join")
    dim = copies - 1
    witness = IndexWitness(group, copies, copies)
    bound = DimBound(dim, dim, witness, witness)
    report = BoundReport(
        "commutative",
        {"group": group, "copies": str(copies)},
        bound,
        _cite("index-rule"),
    )
    return CommutativeDimension(dim, copies, report)


def finite_af_bounds(group, n: int):
    """Finite group on a UHF-model algebra, target dimension above n.

    With an order-2 group the join models are built in and the result is
    the concrete {n+1, 2n+4} report.  Other finite groups get the
    documented existence-only outcome: the dimension is finite and
    exceeds n, but no effective bound is computed here.
    """
    if n < 1:
        raise InputError("finite construction needs n >= 1")
    ring = ring_from_tag(group) if isinstance(group, str) else group
    if not ring.is_fusion:
        raise InputError("finite construction needs a fusion ring")
    tag = group if isinstance(group, str) else "custom"
    if ring == cyclic_ring(2):
        inner = z2_af_bounds(n + 1)
        return BoundReport(
            "finite-af",
            {"group": "z2", "n": str(n)},
            inner.bound,
            inner.citations,
        )
    return ExistenceReport(
        "finite-af",
        {"group": tag, "n": str(n)},
        (
            f"dimension is finite and exceeds {n}, but no effective join model "
            f"is built in for {tag!r}; only the order-2 group has one"
        ),
        _cite("finiteness-only"),
    )


# ---------------------------------------------------------------------------
# Construction table
# ---------------------------------------------------------------------------


class Argument(NamedTuple):
    """One construction argument, named as in the report's parameters.

    type parses the argument's text (int, str or _upper_from_str) and
    raises ValueError on malformed text; metavar names it on the command
    line when that differs from the parameter name.
    """

    name: str
    type: object = int
    help: str | None = None
    metavar: str | None = None
    choices: tuple | None = None


class Construction(NamedTuple):
    """A named construction: its rokhlin subcommand, its arguments in
    command-line order, and build(**arguments) returning its report."""

    command: str
    help: str
    arguments: tuple
    build: object


def _stated_arguments(doc: dict) -> dict:
    """Argument text that a canonical report states.

    That is its parameters plus the two input bounds of a rule certificate
    as l1, u1, l2 and u2, since tensor-rule's parameters hold only the rule.
    """
    stated = dict(doc["parameters"])
    for cert in doc.get("certificates", ()):
        if cert["kind"] == "rule" and len(cert["inputs"]) == 2:
            first, second = cert["inputs"]
            stated.update(
                l1=first["lower"], u1=first["upper"],
                l2=second["lower"], u2=second["upper"],
            )
    return stated


# Each build looks its builder up by module-level name at call time, so a
# wrapper bound over that name (a tracer, a test double) sees every call.
CONSTRUCTIONS = {
    "z2-af": Construction(
        "z2", "order-2 group, UHF model", (Argument("m"),),
        lambda m: z2_af_bounds(m),
    ),
    "circle-ah": Construction(
        "circle", "circle, AH model", (Argument("d"),),
        lambda d: circle_ah_dimension(d),
    ),
    "product-z2": Construction(
        "product-z2",
        "order-2 times an odd group",
        (Argument("m"), Argument("group", str, "odd-order fusion ring tag, e.g. z3")),
        lambda m, group: product_z2_bounds(m, group),
    ),
    "circle-product": Construction(
        "circle-product",
        "circle times a finite group",
        (Argument("d"), Argument("group", str)),
        lambda d, group: circle_product_dimension(d, group),
    ),
    "z6-collapse": Construction(
        "z6-collapse",
        "product collapse example",
        (Argument("d", int, "level both factors must exceed"),),
        lambda d: z6_collapse_report(d),
    ),
    "commutative": Construction(
        "commutative",
        "canonical join action dimension",
        (
            Argument("group", str, "z<n> or s1"),
            Argument("copies", int, "join copies", metavar="k"),
        ),
        lambda group, copies: commutative_dimension(group, copies),
    ),
    "finite-af": Construction(
        "finite",
        "finite group, target above n",
        (Argument("group", str, "fusion ring tag"), Argument("n")),
        lambda group, n: finite_af_bounds(group, n),
    ),
    "tensor-rule": Construction(
        "tensor-rule",
        "combine two bounds",
        (
            Argument("rule", str, choices=("sum", "min", "absorb")),
            Argument("l1"),
            Argument("u1", _upper_from_str, "integer or infinity"),
            Argument("l2"),
            Argument("u2", _upper_from_str, "integer or infinity"),
        ),
        lambda rule, l1, u1, l2, u2: rule_report(rule, DimBound(l1, u1), DimBound(l2, u2)),
    ),
}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_annihilator(cert: AnnihilatorWitness) -> bool:
    try:
        module = cert.model.instantiate()
        if cert.scope == "full":
            lattice = ideal_power(module.ring, cert.power)
        elif cert.scope == "left-factor":
            if cert.model.kind != "tensor":
                return False
            lattice = factor_ideal_power(
                cert.model.left.ring_of(), cert.model.right.ring_of(), cert.power
            )
        else:
            return False
        image = ideal_image(lattice, module)
    except InputError:
        return False
    if image != cert.nonzero_group or image.is_trivial:
        return False
    if cert.stability is not None:
        try:
            return element_stable_nonvanishing(
                module, cert.stability.element, cert.power, cert.stability.multiplier
            )
        except InputError:
            return False
    return True


def _check_index(cert: IndexWitness) -> bool:
    if cert.copies < 1 or cert.ind != cert.copies:
        return False
    if not _commutative_tag_ok(cert.group):
        return False
    if cert.group == "z2" and _sphere_check_feasible(cert.copies):
        return _z2_join_is_sphere(cert.copies)
    return True


def _check_lower(cert, lower: int) -> bool:
    if isinstance(cert, AnnihilatorWitness):
        return cert.power >= lower and _check_annihilator(cert)
    if isinstance(cert, IndexWitness):
        return cert.ind - 1 >= lower and _check_index(cert)
    return False


def _check_upper(cert, upper) -> bool:
    if is_infinite(upper):
        return True
    if isinstance(cert, JoinFactorWitness):
        return cert.copies >= 1 and cert.copies - 1 == upper
    if isinstance(cert, IndexWitness):
        return cert.ind - 1 == upper and _check_index(cert)
    if isinstance(cert, RuleApplication):
        if len(cert.inputs) != 2:
            return False
        (l1, u1), (l2, u2) = cert.inputs
        del l1, l2
        if cert.rule == "sum":
            return upper_add(u1, u2) == upper
        if cert.rule == "min":
            return upper_min(u1, u2) == upper
        if cert.rule == "absorb":
            return (not is_infinite(u2)) and u2 == 0 and u1 == upper
        return False
    return False


def validate_bound(bound: DimBound) -> bool:
    """Recompute every certificate; vacuous claims need no certificate."""
    if bound.lower < 0:
        return False
    if not upper_le(bound.lower, bound.upper):
        return False
    if bound.lower > 0:
        if bound.lower_certificate is None:
            return False
        if not _check_lower(bound.lower_certificate, bound.lower):
            return False
    elif bound.lower_certificate is not None:
        if not _check_lower(bound.lower_certificate, 0):
            return False
    if not is_infinite(bound.upper):
        if bound.upper_certificate is None:
            return False
        if not _check_upper(bound.upper_certificate, bound.upper):
            return False
    return True


def validate(report) -> bool:
    """True when a report is exactly what its construction builds.

    The named construction is rebuilt from the report's parameters and
    the canonical JSON of both is compared, so an unknown name, a claim
    the parameters do not produce, or a non-canonical report is invalid,
    as is one whose builder rejects its parameters.  A missing parameter,
    or one that is not well-formed text for its type, raises InputError.  A bare DimBound
    has no parameters; its certificates are recomputed instead.
    """
    if isinstance(report, DimBound):
        return validate_bound(report)
    claimed = report_to_json_dict(report)
    construction = CONSTRUCTIONS.get(claimed["construction"])
    if construction is None:
        return False
    stated = _stated_arguments(claimed)
    try:
        arguments = {a.name: a.type(stated[a.name]) for a in construction.arguments}
    except (KeyError, ValueError) as exc:
        raise InputError(
            f"malformed {claimed['construction']} parameters: {type(exc).__name__}: {exc}"
        ) from None
    try:
        rebuilt = construction.build(**arguments)
    except EquikError:
        return False
    return report_to_json_dict(rebuilt) == claimed


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _stability_to_json(st):
    if st is None:
        return None
    return {
        "multiplier": str(st.multiplier),
        "element": [str(c) for c in st.element],
    }


def _stability_from_json(obj):
    if obj is None:
        return None
    return Stability(int(obj["multiplier"]), tuple(int(c) for c in obj["element"]))


def _certificate_to_json(cert, role: str) -> dict:
    if isinstance(cert, AnnihilatorWitness):
        return {
            "role": role,
            "kind": "annihilator",
            "ring": cert.ring,
            "power": str(cert.power),
            "scope": cert.scope,
            "model": cert.model.to_json_dict(),
            "nonzero_group": cert.nonzero_group.to_json_dict(),
            "stability": _stability_to_json(cert.stability),
        }
    if isinstance(cert, JoinFactorWitness):
        return {"role": role, "kind": "join-factor", "copies": str(cert.copies)}
    if isinstance(cert, IndexWitness):
        return {
            "role": role,
            "kind": "index",
            "group": cert.group,
            "copies": str(cert.copies),
            "ind": str(cert.ind),
        }
    if isinstance(cert, RuleApplication):
        return {
            "role": role,
            "kind": "rule",
            "rule": cert.rule,
            "inputs": [
                {"lower": str(l), "upper": _upper_str(u)} for l, u in cert.inputs
            ],
        }
    raise InputError(f"unknown certificate type {type(cert).__name__}")


def _certificate_from_json(obj):
    kind = obj.get("kind")
    if kind == "annihilator":
        return AnnihilatorWitness(
            str(obj["ring"]),
            int(obj["power"]),
            ModelDescriptor.from_json_dict(obj["model"]),
            str(obj["scope"]),
            FgAbelianGroup.from_json_dict(obj["nonzero_group"]),
            _stability_from_json(obj.get("stability")),
        )
    if kind == "join-factor":
        return JoinFactorWitness(int(obj["copies"]))
    if kind == "index":
        return IndexWitness(str(obj["group"]), int(obj["copies"]), int(obj["ind"]))
    if kind == "rule":
        return RuleApplication(
            str(obj["rule"]),
            tuple(
                (int(i["lower"]), _upper_from_str(str(i["upper"])))
                for i in obj["inputs"]
            ),
        )
    raise InputError(f"unknown certificate kind {kind!r}")


def _bound_fields(report_bound: DimBound) -> dict:
    certs = []
    if report_bound.lower_certificate is not None:
        certs.append(_certificate_to_json(report_bound.lower_certificate, "lower"))
    if report_bound.upper_certificate is not None:
        certs.append(_certificate_to_json(report_bound.upper_certificate, "upper"))
    return {
        "lower": str(report_bound.lower),
        "upper": _upper_str(report_bound.upper),
        "certificates": certs,
    }


def _citations_json(citations) -> list:
    return [{"tag": c.tag, "statement": c.statement} for c in citations]


def report_to_json_dict(report) -> dict:
    if isinstance(report, CommutativeDimension):
        out = report_to_json_dict(report.report)
        out["ind"] = str(report.ind)
        return out
    if isinstance(report, BoundReport):
        out = {
            "construction": report.construction,
            "parameters": dict(report.parameters),
        }
        out.update(_bound_fields(report.bound))
        out["citations"] = _citations_json(report.citations)
        return out
    if isinstance(report, CollapseReport):
        out = {
            "construction": report.construction,
            "parameters": dict(report.parameters),
        }
        out.update(_bound_fields(report.product.bound))
        out["citations"] = _citations_json(report.citations)
        out["factors"] = [report_to_json_dict(f) for f in report.factors]
        out["finding"] = report.finding
        return out
    if isinstance(report, ExistenceReport):
        return {
            "construction": report.construction,
            "parameters": dict(report.parameters),
            "outcome": "existence-only",
            "note": report.note,
            "citations": _citations_json(report.citations),
        }
    raise InputError(f"cannot serialize object of type {type(report).__name__}")


def _bound_from_json(obj) -> DimBound:
    lower = int(obj["lower"])
    upper = _upper_from_str(str(obj["upper"]))
    lower_cert = None
    upper_cert = None
    for cert_obj in obj.get("certificates", ()):
        cert = _certificate_from_json(cert_obj)
        if cert_obj.get("role") == "lower":
            lower_cert = cert
        elif cert_obj.get("role") == "upper":
            upper_cert = cert
        else:
            raise InputError("certificate needs a role of lower or upper")
    return DimBound(lower, upper, lower_cert, upper_cert)


def _citations_from_json(objs) -> tuple:
    return tuple(Citation(str(c["tag"]), str(c["statement"])) for c in objs)


def report_from_json_dict(obj):
    """Decode a report; malformed fields raise InputError."""
    if not isinstance(obj, dict) or "construction" not in obj:
        raise InputError("report object needs a construction field")
    try:
        construction = str(obj["construction"])
        parameters = {str(k): str(v) for k, v in obj.get("parameters", {}).items()}
        citations = _citations_from_json(obj.get("citations", ()))
        if obj.get("outcome") == "existence-only":
            return ExistenceReport(construction, parameters, str(obj.get("note", "")), citations)
        bound = _bound_from_json(obj)
        if "factors" in obj:
            factors = tuple(report_from_json_dict(f) for f in obj["factors"])
            product = BoundReport(
                construction + "-product", dict(parameters), bound, citations
            )
            return CollapseReport(
                construction, parameters, factors, product, str(obj.get("finding", "")), citations
            )
        report = BoundReport(construction, parameters, bound, citations)
        if "ind" in obj:
            return CommutativeDimension(bound.lower, int(obj["ind"]), report)
        return report
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed report object: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_bound(bound: DimBound) -> str:
    lo = f"lower {bound.lower}"
    lc = bound.lower_certificate
    if isinstance(lc, AnnihilatorWitness):
        lo += f" (witness {lc.nonzero_group.render()})"
    elif isinstance(lc, IndexWitness):
        lo += f" (index {lc.ind})"
    if is_infinite(bound.upper):
        hi = "upper infinity"
    else:
        hi = f"upper {bound.upper}"
        uc = bound.upper_certificate
        if isinstance(uc, JoinFactorWitness):
            hi += f" (join k={uc.copies})"
        elif isinstance(uc, RuleApplication):
            hi += f" (rule {uc.rule})"
        elif isinstance(uc, IndexWitness):
            hi += f" (index {uc.ind})"
    return f"{lo}, {hi}"
