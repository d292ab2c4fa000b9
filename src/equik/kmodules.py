"""Modules over based rings used as equivariant K-theory models.

A RingModule is a finitely presented abelian group, its relations held
as the Hermite term rows of their lattice, together with a structure
table in the ring's cell format: table[a][i] holds the (k, n) terms of
generator a times ring basis element i, and fusion._row_times forms
every product on it.  Construction re-checks the module axioms (unit,
commutation, compatibility with the structure constants, invariance of
the relation lattice), so anything that exists is a genuine module
presentation.  They are checked on the ring's generators; every index
runs only on failure, to name the axiom.

Rows stay sparse from the ideal power to the module image, as maps or
term rows (intmat.Lattice.terms); only act's result and
IdealLattice.basis are dense.  Every image (V + L)/L is RingModule._image,
read by abgroups.quotient.  Rows are checked only where they enter: the
constructor, subgroup_class, act and element_stable_nonvanishing.  In
the axiom checks, e_k e_m is the cell t[k][m] itself, read in place.
ModelDescriptor is a NamedTuple.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .abgroups import FgAbelianGroup, quotient, tor as group_tor
from .errors import EquikError, InputError, decimal
from .fusion import (
    IdealLattice,
    _associativity_witness,
    _difference,
    _kron,
    _product_outside,
    _row_times,
    _times,
    _unit_terms,
    circle_truncation,
    cyclic_ring,
    ideal_power,
    ideal_powers,
    ring_from_tag,
    ring_product,
)
from .intmat import Lattice, hermite_terms


class ModuleInvariantError(InputError):
    """A module axiom failed; names the axiom and the offending indices."""

    def __init__(self, axiom, indices=()):
        self.axiom = axiom
        self.indices = tuple(indices)
        where = f" at indices {self.indices}" if self.indices else ""
        super().__init__(f"module axiom {axiom!r} violated{where}")


class RingModule:
    """Module presentation: generators, relation rows, structure table.

    Relations are sparse rows, {column: entry} maps on the generators as
    in intmat.SparseMatrix, with int columns and int entries; zeros are
    dropped.  Only the relations' lattice is kept, as Hermite term rows.
    table[a][i], one row per generator and one cell per ring basis
    element, is row a of the action matrix of e_i as a term row; the
    axioms are checked on the ring's generators (all on failure).
    """

    def __init__(self, ring, generators: int, relations, table):
        if generators < 0:
            raise InputError("generator count must be nonnegative")
        relations = _checked_rows(relations, generators, "relations")
        self.ring = ring
        self.generators = generators
        self.table = _checked_table(table, generators, ring.rank)
        self.lattice = Lattice(hermite_terms(relations), generators)
        self._validate()

    def _validate(self):
        ring, lattice, t = self.ring, self.lattice, self.table
        if _axioms_hold_on_generators(ring, lattice, t):
            return
        g, r = self.generators, ring.rank  # a failure: scan every index for the first one
        e = _unit_terms(range(max(g, r)))
        if _difference([row[0] for row in t], e, lattice):
            raise ModuleInvariantError("unit acts as identity", (0,))
        for i in range(r):
            for j in range(i, r):
                pij = [_times(t, row[i], e[j]) for row in t]
                if _difference(pij, [_times(t, row[j], e[i]) for row in t], lattice):
                    raise ModuleInvariantError("actions commute", (i, j))
                if _difference(pij, [_times(t, e[a], ring.table[i][j]) for a in range(g)], lattice):
                    raise ModuleInvariantError("fusion compatibility", (i, j))
        for i in range(r):
            if _product_outside(t, lattice, (i,)) is not None:
                raise ModuleInvariantError("relations are invariant", (i,))
        raise EquikError("module axioms fail on the generators but hold at every index")

    # -- queries ----------------------------------------------------------

    def underlying_group(self) -> FgAbelianGroup:
        g = self.generators
        return quotient(Lattice(_unit_terms(range(g)), g), self.lattice.terms)

    def act(self, ring_vec, module_vec) -> tuple:
        """Image of a module vector under a ring element, as a raw vector."""
        b = _int_terms(ring_vec, self.ring.rank, "ring element")
        x = _int_terms(module_vec, self.generators, "module element")
        out = _row_times(self.table, x, b)
        return tuple([out.get(j, 0) for j in range(self.generators)])

    def subgroup_class(self, vectors) -> FgAbelianGroup:
        """Class of the subgroup generated by the vectors inside the module,
        each a {column: entry} map on the generators, checked as relations are."""
        return self._image(_checked_rows(vectors, self.generators, "vectors"))

    def _image(self, maps: list) -> FgAbelianGroup:
        """(V + L)/L for the span V of the maps, reduced in place, and the relations L."""
        rel = self.lattice.terms
        outer = Lattice(hermite_terms(maps + [dict(row) for row in rel]), self.generators)
        return quotient(outer, rel)


def _checked_rows(rows, g: int, what: str) -> list:
    """Copies of the {column: entry} maps rows, zeros dropped; InputError
    unless each column is an int in [0, g) and each entry an int (not a bool)."""
    rows = tuple(rows)
    if not all(type(row) is dict for row in rows) or not all(
        type(j) is int and 0 <= j < g and type(e) is int for row in rows for j, e in row.items()
    ):
        raise InputError(f"{what} must be {{column: int}} maps with columns in [0, {g})")
    return [{j: e for j, e in row.items() if e} for row in rows]


def _checked_table(t, g: int, r: int) -> tuple:
    """The table t itself; InputError unless it is a tuple of g rows of r
    cells, each a tuple of (k, n) pairs with int k in [0, g) and int
    n != 0 (not bools)."""
    if not (
        type(t) is tuple
        and len(t) == g
        and all(type(row) is tuple and len(row) == r for row in t)
        and all(type(c) is tuple for row in t for c in row)
        and all(type(x) is tuple and len(x) == 2 for row in t for c in row for x in c)
        and all(
            type(k) is type(n) is int and 0 <= k < g and n for row in t for c in row for k, n in c
        )
    ):
        raise InputError(f"module table needs {g} x {r} cells of int pairs (k, n), k < {g}, n != 0")
    return t


def _int_terms(vec, width: int, what: str) -> list:
    """The nonzero (index, entry) terms of a vector; InputError unless it
    holds width entries, each an int (not a bool), as relations do."""
    vec = tuple(vec)
    if len(vec) != width or not all(type(e) is int for e in vec):
        raise InputError(f"{what} must hold {width} ints")
    return [(a, e) for a, e in enumerate(vec) if e]


def _axioms_hold_on_generators(ring, lattice, t) -> bool:
    """The unit law, L e_s in L and (e_a e_s) e_j = e_a (e_s e_j) mod L
    (Light's test on the module, fusion._associativity_witness) for s in
    the ring's generators S and all a, j, which imply every axiom: the b
    with L A(b) in L, A(b) the action of b, hold 1 and are closed under
    each e_s, so they are all of Z^r; the c with A(c) A(b) = A(cb) mod L
    for all b form a subring of the associative, commutative ring holding S."""
    return not (
        _difference([row[0] for row in t], _unit_terms(range(len(t))), lattice)
        or _product_outside(t, lattice, ring.generators)
        or _associativity_witness(ring.table, ring.generators, t, lattice)
    )


def truncated_ring_module(ring, n: int) -> RingModule:
    """The ring modulo its n-th augmentation-ideal power, as a module.

    Basis element i acts by right multiplication: the table is the ring's.
    """
    relations = [dict(row) for row in ideal_power(ring, n).terms]
    return RingModule(ring, ring.rank, relations, ring.table)


def zero_module(ring) -> RingModule:
    return RingModule(ring, 0, (), ())


def module_direct_sum(a: RingModule, b: RingModule) -> RingModule:
    if a.ring != b.ring:
        raise InputError("direct sum needs modules over the same ring")
    off = a.generators
    relations = [dict(row) for row in a.lattice.terms]
    relations += [{off + j: e for j, e in row} for row in b.lattice.terms]
    shifted = tuple(
        [tuple([tuple([(off + k, n) for k, n in cell]) for cell in row]) for row in b.table]
    )
    return RingModule(a.ring, off + b.generators, relations, a.table + shifted)


# ---------------------------------------------------------------------------
# Model descriptors
# ---------------------------------------------------------------------------


def _order(text: str) -> int:
    """A model order: canonical decimal text (errors.decimal), not
    negative.  instantiate checks each kind's least order."""
    n = decimal(text)
    if n < 0:
        raise ValueError(f"negative order {text!r}")
    return n


class _LeafKind(NamedTuple):
    """A model kind that truncates one ring: its tag fields (name, parser)
    in tag order, its ring, and the least order it instantiates at."""

    fields: tuple
    ring: Callable
    least_order: int


_LEAF_KINDS = {
    "trunc-z2": _LeafKind((("order", _order),), lambda d: cyclic_ring(2), 1),
    "circle": _LeafKind((("order", _order),), lambda d: circle_truncation(d.order), 1),
    "trunc": _LeafKind(
        (("ring", str), ("order", _order)), lambda d: ring_from_tag(d.ring), 0
    ),
}


def _leaf_kind(kind) -> _LeafKind:
    leaf = _LEAF_KINDS.get(kind) if isinstance(kind, str) else None
    if leaf is None:
        raise InputError(f"unknown model kind {kind!r}")
    return leaf


class ModelDescriptor(NamedTuple):
    """Named K-theory model, addressable from the CLI and from reports.

    Kinds: 'trunc-z2' (order-2 ring modulo its l-th ideal power),
    'circle' (order-n circle truncation as a module over itself),
    'trunc' (any built-in ring tag modulo its n-th ideal power), and
    'tensor' (the tensor piece of two models over the product ring).
    Every kind but 'tensor' is a row of _LEAF_KINDS.
    """

    kind: str
    order: int = 0
    ring: str = ""
    left: "ModelDescriptor | None" = None
    right: "ModelDescriptor | None" = None

    @classmethod
    def parse(cls, text: str) -> "ModelDescriptor":
        if text.startswith("tensor(") and text.endswith(")"):
            inner = text[len("tensor(") : -1]
            depth = 0
            for pos, ch in enumerate(inner):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "," and depth == 0:
                    return cls(
                        "tensor",
                        left=cls.parse(inner[:pos]),
                        right=cls.parse(inner[pos + 1 :]),
                    )
            raise InputError(f"tensor descriptor {text!r} needs two halves")
        kind, *values = text.split(":")
        leaf = _LEAF_KINDS.get(kind)
        if leaf is not None and len(values) == len(leaf.fields):
            try:
                return cls(
                    kind, **{name: typ(v) for (name, typ), v in zip(leaf.fields, values)}
                )
            except ValueError:
                raise InputError(f"bad order in model descriptor {text!r}") from None
        raise InputError(
            f"cannot parse model descriptor {text!r}; expected trunc-z2:l, "
            "circle:n, trunc:<ring>:n, or tensor(a,b)"
        )

    def render(self) -> str:
        if self.kind == "tensor":
            return f"tensor({self.left.render()},{self.right.render()})"
        fields = _leaf_kind(self.kind).fields
        return ":".join([self.kind] + [str(getattr(self, name)) for name, _ in fields])

    def ring_of(self):
        if self.kind == "tensor":
            return ring_product(self.left.ring_of(), self.right.ring_of())
        return _leaf_kind(self.kind).ring(self)

    def instantiate(self) -> RingModule:
        if self.kind == "tensor":
            left = self.left.instantiate()
            right = self.right.instantiate()
            mod, _ = kunneth_pieces(left, right)
            return mod
        least = _leaf_kind(self.kind).least_order
        if self.order < least:
            raise InputError(f"{self.kind} needs order >= {least}")
        return truncated_ring_module(self.ring_of(), self.order)

    def to_json_dict(self) -> dict:
        if self.kind == "tensor":
            return {
                "kind": "tensor",
                "left": self.left.to_json_dict(),
                "right": self.right.to_json_dict(),
            }
        # kind first, then the fields by name (order before ring)
        fields = sorted(name for name, _ in _leaf_kind(self.kind).fields)
        return {"kind": self.kind, **{name: str(getattr(self, name)) for name in fields}}


def trunc_z2_model(l: int) -> ModelDescriptor:
    return ModelDescriptor("trunc-z2", order=l)


def circle_model(n: int) -> ModelDescriptor:
    return ModelDescriptor("circle", order=n)


def trunc_model(ring_tag: str, n: int) -> ModelDescriptor:
    return ModelDescriptor("trunc", order=n, ring=ring_tag)


def tensor_model(left: ModelDescriptor, right: ModelDescriptor) -> ModelDescriptor:
    return ModelDescriptor("tensor", left=left, right=right)


# ---------------------------------------------------------------------------
# Images, powers, stability
# ---------------------------------------------------------------------------


def ideal_image(lattice: IdealLattice, module: RingModule) -> FgAbelianGroup:
    """Class of the subgroup of the module generated by the ideal's action."""
    return _ideal_times(lattice, module, _unit_terms(range(module.generators)))


def _ideal_times(lattice: IdealLattice, module: RingModule, xs) -> FgAbelianGroup:
    """Class of the span of x b in the module, x in the term rows xs, b in the ideal's rows."""
    if lattice.ring != module.ring:
        raise InputError("ideal and module live over different rings")
    return module._image([_row_times(module.table, x, b) for b in lattice.terms for x in xs])


def max_nonvanishing_power(module: RingModule, cap: int = 16) -> int:
    """Largest n <= cap with a nontrivial ideal-power image, else -1.

    The images are nested, so the scan stops at the first trivial one.
    A module that is trivial to begin with returns -1.
    """
    if cap < 0:
        raise InputError("cap must be nonnegative")
    for n, lattice in zip(range(cap + 1), ideal_powers(module.ring, last=cap)):
        if ideal_image(lattice, module).is_trivial:
            return n - 1
    return cap


def kunneth_pieces(mg: RingModule, mh: RingModule):
    """(tensor module over the product ring, Tor of the underlying groups).

    The tensor presentation is the Kronecker one: relations R x I and
    I x S, and the tables' Kronecker product (fusion._kron), on the
    generators (c, d) -> c * h + d.  R x I has the row r x e_d for each
    relation row r and each d, and I x S the row e_c x s for each c and
    each relation row s.
    The Tor piece is reported as a bare abelian group; no extension data
    is computed.
    """
    ring = ring_product(mg.ring, mh.ring)
    h = mh.generators
    relations = [{c * h + d: e for c, e in r} for r in mg.lattice.terms for d in range(h)]
    relations += [
        {c * h + d: e for d, e in s} for c in range(mg.generators) for s in mh.lattice.terms
    ]
    module = RingModule(ring, mg.generators * h, relations, _kron(mg.table, mh.table))
    torsion = group_tor(mg.underlying_group(), mh.underlying_group())
    return module, torsion


def factor_ideal_power(ring, left_ring, m: int) -> IdealLattice:
    """(I(left) x right)^m inside ring, the ring_product of left_ring and right.

    Because the right factor is the whole ring, the m-th power is the
    span of u x e_j over a basis u of I(left)^m and the right basis.
    """
    rr = ring.rank // left_ring.rank
    rows = [
        {i * rr + j: c for i, c in u} for u in ideal_power(left_ring, m).terms for j in range(rr)
    ]
    return IdealLattice(ring, terms=hermite_terms(rows))


def element_stable_nonvanishing(module: RingModule, x, lattice: IdealLattice, mult: int) -> bool:
    """Does the ideal lattice keep hitting x after arbitrarily many multiplications by mult?

    True exactly when the subgroup lattice . x contains an element of
    infinite order, or one of finite order coprime to mult.  With
    mult = 1 this is just lattice . x != 0.  A report's stability check
    passes the full I^n, ideal_power(module.ring, n), whatever the
    witness's scope.
    """
    if mult < 1:
        raise InputError("multiplier must be >= 1")
    sub = _ideal_times(lattice, module, [_int_terms(x, module.generators, "module element")])
    # A cyclic factor d > 1 has a prime that mult lacks exactly when d does
    # not divide mult^d: each prime of d divides it fewer than d times.
    return sub.free_rank > 0 or any(pow(mult, d, d) for d in sub.torsion)
