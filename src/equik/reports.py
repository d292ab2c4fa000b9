"""Certified dimension-bound reports for named action constructions.

Each report carries a bound interval plus certificates.  Lower
certificates are recomputable algebra: an ideal-power image on a named
K-theory model that comes out nonzero (optionally stable under the
connecting multiplier).  Upper certificates are structural: a join
factor count, a combination rule, or an index value.  CONSTRUCTIONS
names every construction; validate() rebuilds a report from its name
and parameters, walks the report's JSON tree beside the rebuild's, and
accepts it only if the two are identical.  Each certificate kind has
one check, called by its builder and by validate_bound alike:
_annihilator_image, _index_dimension, _rule_upper.  Reports and
certificates are immutable errors.TupleRecords, varied by _replace.
"""

from __future__ import annotations

from .abgroups import FgAbelianGroup
from .errors import CapExceededError, EquikError, InputError, TupleRecord, UnsupportedError, decimal
from .fusion import (
    cyclic_ring,
    ideal_power,
    regular_dimension,
    ring_from_tag,
    tag_order,
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


def upper_bound(text):
    """An upper bound from its text: "infinity" or canonical decimal."""
    return INFINITY if text == "infinity" else decimal(text)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Stability(TupleRecord):
    """Connecting-map data: multiplier and the tracked module element."""

    __slots__, _fields = (), ("multiplier", "element")


class AnnihilatorWitness(TupleRecord):
    """Nonzero image of an ideal power on a concrete module.

    scope 'full' acts by the n-th power of the whole augmentation ideal;
    scope 'left-factor' acts by (I(left) x right)^n on a tensor model.
    A stability check reads the full I^n whatever the scope.
    """

    __slots__, _fields = (), ("ring", "power", "model", "scope", "nonzero_group", "stability")
    _defaults = (None,)


class JoinFactorWitness(TupleRecord):
    """A model built from a k-fold self-join caps the dimension at k - 1."""

    __slots__, _fields = (), ("copies",)


class IndexWitness(TupleRecord):
    """Commutative case: dimension equals the join index minus one."""

    __slots__, _fields = (), ("group", "copies", "ind")


class RuleApplication(TupleRecord):
    """Combination rule applied to input bound summaries (lower, upper)."""

    __slots__, _fields = (), ("rule", "inputs")


class DimBound(TupleRecord):
    # upper is an int or INFINITY
    __slots__, _fields = (), ("lower", "upper", "lower_certificate", "upper_certificate")
    _defaults = (None, None)


class Citation(TupleRecord):
    __slots__, _fields = (), ("tag", "statement")


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


class BoundReport(TupleRecord):
    __slots__, _fields = (), ("construction", "parameters", "bound", "citations")

    @property
    def lower(self):
        return self.bound.lower

    @property
    def upper(self):
        return self.bound.upper


class CollapseReport(TupleRecord):
    __slots__, _fields = (), (
        "construction", "parameters", "factors", "product", "finding", "citations"
    )


class ExistenceReport(TupleRecord):
    __slots__, _fields = (), ("construction", "parameters", "note", "citations")

    outcome = "existence-only"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _annihilator_image(model: ModelDescriptor, scope: str, power: int, stability, module=None):
    """The certified image of an ideal power on model: what an AnnihilatorWitness states.

    scope 'full' acts by the power-th power of the augmentation ideal of
    the model's ring; 'left-factor' acts by (I(left) x right)^power on a
    tensor model left x right.  module is model's instance when the
    caller already has one.  Raises InputError when the image is zero or
    the stability check, which reads the full I^power whatever the scope,
    fails.
    """
    if module is None:
        module = model.instantiate()
    if scope == "full":
        lattice = ideal_power(module.ring, power)
    elif scope == "left-factor" and model.kind == "tensor":
        lattice = factor_ideal_power(module.ring, model.left.ring_of(), power)
    else:
        raise InputError(f"no {scope!r} ideal power on {model.render()}")
    image = ideal_image(lattice, module)
    if image.is_trivial:
        raise InputError(
            f"ideal power {power} acts trivially on {model.render()}; no witness"
        )
    if stability is not None and not element_stable_nonvanishing(
        module,
        stability.element,
        lattice if scope == "full" else ideal_power(module.ring, power),
        stability.multiplier,
    ):
        raise InputError("stability check failed for the requested witness")
    return image


def _witness_ring(model: ModelDescriptor) -> str:
    """The ring label an annihilator witness on model states.

    trunc-z2 gives z2, trunc its ring tag and circle circle:n.  A tensor
    of two ring tags joins them with x, the product's own tag; a tensor
    with a circle factor (whose label holds a colon) gives prod(l,r).
    """
    if model.kind == "tensor":
        left, right = _witness_ring(model.left), _witness_ring(model.right)
        if ":" in left + right:
            return f"prod({left},{right})"
        return f"{left}x{right}"
    if model.kind == "circle":
        return f"circle:{model.order}"
    return "z2" if model.kind == "trunc-z2" else model.ring


def _annihilator_witness(model, scope: str, power: int, multiplier=None):
    """Witness for an ideal power on model; a multiplier asks the unit class to be stable."""
    module = model.instantiate()
    stability = None
    if multiplier is not None:
        stability = Stability(multiplier, tuple(int(i == 0) for i in range(module.generators)))
    image = _annihilator_image(model, scope, power, stability, module)
    return AnnihilatorWitness(_witness_ring(model), power, model, scope, image, stability)


def z2_af_bounds(m: int) -> BoundReport:
    """Order-2 group on a UHF-model algebra: lower m, upper 2m + 2."""
    if m < 1:
        raise InputError("z2 construction needs m >= 1")
    model = trunc_z2_model(m + 1)
    witness = _annihilator_witness(model, "full", m)
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
    witness = _annihilator_witness(model, "full", d, 2)
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
    witness = _annihilator_witness(model, "left-factor", m, order)
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
    witness = _annihilator_witness(model, "left-factor", d, 2)
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


def _rule_upper(rule: str, inputs):
    """The upper bound a rule gives from two input (lower, upper) pairs.

    'sum' adds the uppers, 'min' takes the smaller, 'absorb' requires the
    second upper to be 0 and keeps the first.  Each input needs
    0 <= lower <= upper.
    """
    if len(inputs) != 2:
        raise InputError(f"a tensor rule combines two bounds, not {len(inputs)}")
    for lower, upper in inputs:
        if lower < 0 or not upper_le(lower, upper):
            raise InputError(f"incoherent input bound: lower {lower}, upper {upper}")
    (_, u1), (_, u2) = inputs
    if rule == "sum":
        return upper_add(u1, u2)
    if rule == "min":
        return upper_min(u1, u2)
    if rule == "absorb":
        if is_infinite(u2) or u2 != 0:
            raise InputError("absorb needs the second factor to have upper bound 0")
        return u1
    raise InputError(f"unknown tensor rule {rule!r}")


def tensor_rule(rule: str, b1, b2) -> DimBound:
    """Combine two bounds by _rule_upper; only the upper bound propagates.

    The output lower is always 0: lower bounds never propagate through
    tensor products.
    """
    b1, b2 = _as_bound(b1), _as_bound(b2)
    inputs = ((b1.lower, b1.upper), (b2.lower, b2.upper))
    return DimBound(0, _rule_upper(rule, inputs), None, RuleApplication(rule, inputs))


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
    factor_one = product_z2_bounds(m, "z3")._replace(
        construction="z6-collapse-factor", parameters={"side": "z2", "m": str(m), "group": "z3"}
    )
    model_two = tensor_model(trunc_model("z3", m + 1), trunc_model("z2", 1))
    witness_two = _annihilator_witness(model_two, "left-factor", m, 2)
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


def _index_dimension(group: str, copies: int) -> int:
    """Dimension k - 1 of the canonical action on the k-fold self-join.

    The group is s1 or z<d>, with d as fusion.tag_order reads it, and z1
    (dimension 0, index 1: its joins are simplices) only at k = 1.  For
    the order-2 group the join is the (k-1)-sphere, and its homology is
    checked whenever the join fits the work budget.
    """
    if copies < 1:
        raise InputError("join copies must be >= 1")
    if group != "s1" and (not group.startswith("z") or "x" in group):
        raise UnsupportedError(
            f"no commutative join model for group tag {group!r}; "
            "supported: z<n> and s1"
        )
    if group != "s1":
        tag_order(group, "z")
    if group == "z1" and copies > 1:
        raise InputError("the trivial group z1 has dimension 0 and index 1; only k = 1 states that")
    if group == "z2":
        try:
            join = build_join_complex(2, copies)
        except CapExceededError:  # over the work budget: no cross-check
            return copies - 1
        sphere = tuple(FgAbelianGroup(int(d == copies - 1), ()) for d in range(copies))
        if reduced_homology(join).groups != sphere:
            raise InputError("sphere cross-check failed for the order-2 join")
    return copies - 1


class CommutativeDimension(TupleRecord):
    __slots__, _fields = (), ("dim", "ind", "report")


def commutative_dimension(group: str, copies: int):
    """Canonical action on the k-fold self-join: dimension k - 1, index k."""
    dim = _index_dimension(group, copies)
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
    the concrete {n+1, 2n+4} report.  Other nontrivial groups get the
    existence-only outcome: the dimension is finite and exceeds n, but
    no effective bound is computed here.  The trivial group is refused.
    """
    if n < 1:
        raise InputError("finite construction needs n >= 1")
    ring = ring_from_tag(group)
    if ring.rank == 1:
        raise InputError(f"{group!r} is the trivial group: its dimension is 0, not above {n}")
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
        {"group": group, "n": str(n)},
        (
            f"dimension is finite and exceeds {n}, but no effective join model "
            f"is built in for {group!r}; only the order-2 group has one"
        ),
        _cite("finiteness-only"),
    )


# ---------------------------------------------------------------------------
# Construction table
# ---------------------------------------------------------------------------


class Argument(TupleRecord):
    """One construction argument, named as in the report's parameters.

    type parses the argument's text (decimal, str or upper_bound) and
    raises ValueError on malformed text; metavar names it on the command
    line when that differs from the parameter name.  The fields after name
    are argparse's add_argument keywords; a --name is an option.
    """

    __slots__, _fields = (), ("name", "type", "help", "metavar", "choices", "default")
    _defaults = (decimal, None, None, None, None)


class Construction(TupleRecord):
    """A named construction: its rokhlin subcommand, its arguments in
    command-line order, and build(**arguments) returning its report."""

    __slots__, _fields = (), ("command", "help", "arguments", "build")


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
        (Argument("d", help="level both factors must exceed"),),
        lambda d: z6_collapse_report(d),
    ),
    "commutative": Construction(
        "commutative",
        "canonical join action dimension",
        (
            Argument("group", str, "z<n> or s1"),
            Argument("copies", help="join copies", metavar="k"),
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
            Argument("u1", upper_bound, "integer or infinity"),
            Argument("l2"),
            Argument("u2", upper_bound, "integer or infinity"),
        ),
        lambda rule, l1, u1, l2, u2: rule_report(rule, DimBound(l1, u1), DimBound(l2, u2)),
    ),
}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_lower(cert, lower: int) -> bool:
    if isinstance(cert, AnnihilatorWitness):
        return (
            cert.power >= lower
            and cert.ring == _witness_ring(cert.model)
            and cert.nonzero_group
            == _annihilator_image(cert.model, cert.scope, cert.power, cert.stability)
        )
    if isinstance(cert, IndexWitness):
        return cert.ind == cert.copies and _index_dimension(cert.group, cert.copies) >= lower
    return False


def _check_upper(cert, upper: int) -> bool:
    if isinstance(cert, JoinFactorWitness):
        return cert.copies >= 1 and cert.copies - 1 == upper
    if isinstance(cert, IndexWitness):
        return cert.ind == cert.copies and _index_dimension(cert.group, cert.copies) == upper
    if isinstance(cert, RuleApplication):
        return _rule_upper(cert.rule, cert.inputs) == upper
    return False


def validate_bound(bound: DimBound) -> bool:
    """Recompute every certificate with the function its builder uses.

    Vacuous claims need no certificate.  A certificate whose check raises
    EquikError (a zero image, an unknown ring, an incoherent rule input)
    is invalid.
    """
    if bound.lower < 0 or not upper_le(bound.lower, bound.upper):
        return False
    lower_cert, upper_cert = bound.lower_certificate, bound.upper_certificate
    if bound.lower > 0 and lower_cert is None:
        return False
    if not is_infinite(bound.upper) and upper_cert is None:
        return False
    try:
        return (lower_cert is None or _check_lower(lower_cert, bound.lower)) and (
            is_infinite(bound.upper) or _check_upper(upper_cert, bound.upper)
        )
    except EquikError:
        return False


_JSON_TYPES = {dict: "object", list: "array", str: "string", type(None): "null"}


def _is_number(text) -> bool:
    """Is text what a canonical report writes for an integer (errors.decimal)
    or an absent upper bound?"""
    try:
        upper_bound(text)
    except ValueError:
        return False
    return True


def _argument(argument: Argument, text):
    """An argument's value from its stated text, which must be a string,
    and canonical (_is_number) for a number; else ValueError."""
    if not isinstance(text, str) or (argument.type is not str and not _is_number(text)):
        raise ValueError(f"{argument.name} is {text!r}, not canonical text")
    return argument.type(text)


def _difference(found, expected, path: str):
    """The first difference between the trees found and expected, or None.

    Raises InputError naming the path where found is malformed: a
    different JSON type, a missing key, or text that is not canonical
    (_is_number) where expected holds a number.  All nodes both trees have
    are walked, so a malformed node outranks a plain difference; lists
    of different lengths are not walked.
    """
    if found == expected:  # report trees hold no numbers or booleans: equal is identical
        return None
    kind, found_kind = (_JSON_TYPES.get(type(v), type(v).__name__) for v in (expected, found))
    if found_kind != kind:
        raise InputError(f"{path}: expected {kind}, found {found_kind}")
    if isinstance(expected, dict):
        missing = [key for key in expected if key not in found]
        if missing:
            raise InputError(f"{path}.{missing[0]}: missing")
        pairs = [(found[key], value, f"{path}.{key}") for key, value in expected.items()]
        extra = [f"{path}: unexpected key {key!r}" for key in found if key not in expected]
    elif isinstance(expected, list):
        if len(found) != len(expected):
            return f"{path}: expected {len(expected)} items, found {len(found)}"
        pairs = [(f, e, f"{path}[{i}]") for i, (f, e) in enumerate(zip(found, expected))]
        extra = []
    elif isinstance(expected, str) and _is_number(expected) and not _is_number(found):
        raise InputError(f"{path}: expected a canonical decimal or infinity, found {found!r}")
    else:
        return f"{path}: expected {expected!r}, found {found!r}"
    return next(filter(None, [_difference(*pair) for pair in pairs] + extra), None)


def validate(report, reasons: list | None = None) -> bool:
    """True when a report, or its JSON tree, is exactly what its construction builds.

    The construction is rebuilt from the stated arguments and both trees
    are walked side by side (_difference).  An unknown name, arguments
    the builder rejects, or any difference makes the report invalid, and
    one line naming it is appended to reasons when that is a list.  A
    malformed tree or argument raises InputError.  A bare DimBound has
    no parameters; validate_bound checks its certificates instead.
    """
    if isinstance(report, DimBound):
        return validate_bound(report)
    doc = report_from_json_dict(report_to_json_dict(report))
    name = doc["construction"]
    construction = CONSTRUCTIONS.get(name)
    if construction is None:
        reason = f"report.construction: no construction is named {name!r}"
    else:
        try:
            stated = _stated_arguments(doc)
            arguments = {a.name: _argument(a, stated[a.name]) for a in construction.arguments}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed {name} parameters: {type(exc).__name__}: {exc}") from None
        try:
            rebuilt = construction.build(**arguments)
        except CapExceededError:
            raise  # too large to rebuild: no verdict
        except EquikError as exc:
            reason = f"report.parameters: {name} rejects them: {exc}"
        else:
            reason = _difference(doc, report_to_json_dict(rebuilt), "report")
    if reason is not None and reasons is not None:
        reasons.append(reason)
    return reason is None


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


def _bound_fields(bound: DimBound) -> dict:
    certs = (("lower", bound.lower_certificate), ("upper", bound.upper_certificate))
    return {
        "lower": str(bound.lower),
        "upper": _upper_str(bound.upper),
        "certificates": [_certificate_to_json(c, role) for role, c in certs if c is not None],
    }


def _citations_json(citations) -> list:
    return [{"tag": c.tag, "statement": c.statement} for c in citations]


def report_to_json_dict(report) -> dict:
    """A report's JSON tree; a dict is taken to be one and returned as is."""
    if isinstance(report, dict):
        return report
    if isinstance(report, CommutativeDimension):
        out = report_to_json_dict(report.report)
        out["ind"] = str(report.ind)
        return out
    if isinstance(report, (BoundReport, CollapseReport)):
        bound = report.bound if isinstance(report, BoundReport) else report.product.bound
        out = {
            "construction": report.construction,
            "parameters": dict(report.parameters),
            **_bound_fields(bound),
            "citations": _citations_json(report.citations),
        }
        if isinstance(report, CollapseReport):
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


def report_lines(report) -> list:
    """The text lines of a report, as `equik rokhlin` prints them."""
    if isinstance(report, CommutativeDimension):
        return [f"dim {report.dim}, ind {report.ind}"]
    if isinstance(report, CollapseReport):
        lines = [f"factor {i}: {render_bound(f.bound)}" for i, f in enumerate(report.factors, 1)]
        lines.append(f"product: {render_bound(report.product.bound)}")
        return lines + [f"finding: {report.finding}"]
    if isinstance(report, ExistenceReport):
        return [f"existence-only: {report.note}"]
    return [render_bound(report.bound)]


def report_from_json_dict(obj) -> dict:
    """The tree, once its root is an object with a string construction
    (else InputError); validate checks the rest against a rebuild."""
    if not isinstance(obj, dict) or not isinstance(obj.get("construction"), str):
        raise InputError("report: expected an object with a string construction")
    return obj


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
