"""Modules over based rings used as equivariant K-theory models.

A RingModule is a finitely presented abelian group, its relations held
as the Hermite term rows of their lattice, together with one integer
action matrix per ring basis element.  Construction re-checks the module
axioms (unit, commutation, compatibility with the structure constants,
invariance of the relation lattice), so anything that exists is a
genuine module presentation.  They are checked on the ring's
generators; every index runs only on failure, to name the axiom.

Rows stay sparse from the ideal power to the module image: relations,
action rows and the vectors of an image are {column: entry} maps, and
ideal rows, relation lattices and module elements are term rows, as in
intmat.Lattice.terms.  A row is dense only where a caller reads it:
the result of RingModule.act, Lattice.rows and IdealLattice.basis.
In the axiom checks, a unit row {k: 1} or table cell ((k, 1),) picks
out an action row or matrix itself, not a copy: those products are only read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .abgroups import FgAbelianGroup, cokernel, direct_sum, tor as group_tor
from .errors import EquikError, InputError, decimal
from .fusion import (
    IdealLattice,
    circle_truncation,
    cyclic_ring,
    ideal_power,
    ideal_powers,
    ring_from_tag,
    ring_product,
)
from .intmat import Lattice, hermite_terms, term_product


class ModuleInvariantError(InputError):
    """A module axiom failed; names the axiom and the offending indices."""

    def __init__(self, axiom, indices=()):
        self.axiom = axiom
        self.indices = tuple(indices)
        where = f" at indices {self.indices}" if self.indices else ""
        super().__init__(f"module axiom {axiom!r} violated{where}")


class RingModule:
    """Module presentation: generators, relation rows, action matrices.

    Relations and action rows are sparse rows, {column: entry} maps on
    the generators as in intmat.SparseMatrix, with int columns and int
    entries; zeros are dropped.  Only the relations' lattice is kept, as
    Hermite term rows.  There is one action matrix per ring basis
    element, one row per generator; the axioms are checked on those rows
    for the ring's generators (all on failure).
    """

    def __init__(self, ring, generators: int, relations, action):
        if generators < 0:
            raise InputError("generator count must be nonnegative")
        relations = _checked_rows(relations, generators, "relations")
        action = tuple(_checked_rows(rows, generators, "action rows") for rows in action)
        if len(action) != ring.rank:
            raise InputError("need one action matrix per ring basis element")
        if any(len(rows) != generators for rows in action):
            raise InputError("action matrices must be generators x generators")
        self.ring = ring
        self.generators = generators
        self.action = action
        self.lattice = Lattice(hermite_terms([dict(row) for row in relations]), generators)
        self._validate()

    def _validate(self):
        act, lattice = self.action, self.lattice
        if _axioms_hold_on_generators(self.ring, lattice, act):
            return
        g = self.generators  # a failure: scan every index for the first one
        if not _vanishes(lattice, act[0], tuple({a: 1} for a in range(g))):
            raise ModuleInvariantError("unit acts as identity", (0,))
        r = self.ring.rank
        for i in range(r):
            for j in range(i, r):
                pij = _mat_mul(act[i], act[j])
                pji = pij if i == j else _mat_mul(act[j], act[i])
                if not _vanishes(lattice, pij, pji):
                    raise ModuleInvariantError("actions commute", (i, j))
                if not _vanishes(lattice, pij, _combine(self.ring.table[i][j], act, g)):
                    raise ModuleInvariantError("fusion compatibility", (i, j))
        for i in range(r):
            if not _relations_move_inside(lattice, act[i]):
                raise ModuleInvariantError("relations are invariant", (i,))
        raise EquikError("module axioms fail on the generators but hold at every index")

    # -- queries ----------------------------------------------------------

    def underlying_group(self) -> FgAbelianGroup:
        return cokernel(self.lattice.rows, self.generators)

    def act(self, ring_vec, module_vec) -> tuple:
        """Image of a module vector under a ring element, as a raw vector."""
        b = _int_terms(ring_vec, self.ring.rank, "ring element")
        x = _int_terms(module_vec, self.generators, "module element")
        out = [0] * self.generators
        for j, e in _act(self.action, b, x).items():
            out[j] = e
        return tuple(out)

    def subgroup_class(self, vectors) -> FgAbelianGroup:
        """Class of the subgroup generated by the vectors inside the module,
        each a {column: entry} map on the generators, checked as relations are."""
        vectors = _checked_rows(vectors, self.generators, "vectors")
        rel_terms = self.lattice.terms
        outer = Lattice(
            hermite_terms([dict(v) for v in vectors] + [dict(row) for row in rel_terms]),
            self.generators,
        )
        rel = []
        for row in rel_terms:
            sol = outer.solve_map(dict(row))
            if sol is None:
                raise EquikError(f"relation {row} lies outside the span built from it")
            rel.append(sol)
        return cokernel(rel, len(outer.terms))


def _checked_rows(rows, g: int, what: str) -> tuple:
    """The {column: entry} maps rows with zeros dropped; InputError unless
    each column is an int in [0, g) and each entry an int (not a bool)."""
    rows = tuple(rows)
    if not all(type(row) is dict for row in rows) or not all(
        type(j) is int and 0 <= j < g and type(e) is int for row in rows for j, e in row.items()
    ):
        raise InputError(f"{what} must be {{column: int}} maps with columns in [0, {g})")
    return tuple(
        [{j: e for j, e in row.items() if e} if 0 in row.values() else row for row in rows]
    )


def _int_terms(vec, width: int, what: str) -> list:
    """The nonzero (index, entry) terms of a vector; InputError unless it
    holds width entries, each an int (not a bool), as relations do."""
    vec = tuple(vec)
    if len(vec) != width or not all(type(e) is int for e in vec):
        raise InputError(f"{what} must hold {width} ints")
    return [(a, e) for a, e in enumerate(vec) if e]


# Sparse matrices here are sequences of {column: entry} rows, and vectors
# are term rows or such maps; intmat.term_product forms every product and
# difference.  Its rows omit zeros, so equal products compare equal as
# dicts.


def _act(action, b, x) -> dict:
    """x A(b) for the ring term row b and the module term row x, where
    A(b) = sum b_i action[i]: the image of x under b."""
    return term_product(b, {i: term_product(x, action[i]) for i, _ in b})


def _vanishes(lattice, m, n) -> bool:
    """Whether every row of m - n, 1 x - 1 y for rows x of m and y of n,
    lies in the lattice; equal rows are skipped."""
    for x, y in zip(m, n):
        if x != y and lattice.solve_map(term_product(((0, 1), (1, -1)), (x, y))) is None:
            return False
    return True


def _relations_move_inside(lattice, rows) -> bool:
    """Whether each relation moved by the matrix with these rows stays in the lattice."""
    return all(lattice.solve_map(term_product(r, rows)) is not None for r in lattice.terms)


def _axioms_hold_on_generators(ring, lattice, act) -> bool:
    """The unit law, L act[s] in L and act[s] act[j] = sum N_sj^k act[k] mod L
    for s in the ring's generators S and every j, which imply every axiom:
    with A(b) = sum b_k act[k], the b with L A(b) in L hold 1 and are closed
    under each e_s, so they are all of Z^r; the a with A(a) A(b) = A(ab) mod L
    for all b form a subring of the associative, commutative ring holding S."""
    g = len(act[0])
    if not _vanishes(lattice, act[0], tuple({a: 1} for a in range(g))):
        return False
    for s in ring.generators:
        if not _relations_move_inside(lattice, act[s]):
            return False
        for j in range(ring.rank):
            product = _mat_mul(act[s], act[j])
            if not _vanishes(lattice, product, _combine(ring.table[s][j], act, g)):
                return False
    return True


def _mat_mul(a, b) -> tuple:
    """a b; a unit row {k: 1} of a gives the row b[k] itself, not a copy."""
    out = []
    for row in a:
        if len(row) == 1 and 1 in row.values():
            out.append(b[next(iter(row))])
        else:
            out.append(term_product(row.items(), b))
    return tuple(out)


def _combine(cell, mats, g: int) -> tuple:
    """sum(n * mats[k]) over the (k, n) pairs of a structure-table cell;
    mats[k] itself when the cell is the one term (k, 1)."""
    if len(cell) == 1 and cell[0][1] == 1:
        return mats[cell[0][0]]
    return tuple([term_product(cell, {k: mats[k][a] for k, _ in cell}) for a in range(g)])


def truncated_ring_module(ring, n: int) -> RingModule:
    """The ring modulo its n-th augmentation-ideal power, as a module.

    Basis element i acts by right multiplication: row j is e_j * e_i.
    """
    if n < 0:
        raise InputError("truncation order must be nonnegative")
    relations = [dict(row) for row in ideal_power(ring, n).terms]
    action = tuple(
        tuple(dict(ring.table[j][i]) for j in range(ring.rank)) for i in range(ring.rank)
    )
    return RingModule(ring, ring.rank, relations, action)


def zero_module(ring) -> RingModule:
    return RingModule(ring, 0, (), ((),) * ring.rank)


def module_direct_sum(a: RingModule, b: RingModule) -> RingModule:
    if a.ring != b.ring:
        raise InputError("direct sum needs modules over the same ring")
    off = a.generators
    relations = [dict(row) for row in a.lattice.terms]
    relations += [{off + j: e for j, e in row} for row in b.lattice.terms]
    action = tuple(
        am + tuple({off + j: e for j, e in row.items()} for row in bm)
        for am, bm in zip(a.action, b.action)
    )
    return RingModule(a.ring, off + b.generators, relations, action)


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


@dataclass(frozen=True)
class ModelDescriptor:
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
    if lattice.ring != module.ring:
        raise InputError("ideal and module live over different rings")
    act = module.action
    return module.subgroup_class(
        [_act(act, b, ((a, 1),)) for b in lattice.terms for a in range(module.generators)]
    )


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
    I x S, action matrices A_i x B_j, on the generators (c, d) ->
    c * h + d.  R x I has the row r x e_d for each relation row r and
    each d, and I x S the row e_c x s for each c and each relation row s.
    The Tor piece is reported as a bare abelian group; no extension data
    is computed.
    """
    ring = ring_product(mg.ring, mh.ring)
    h = mh.generators
    g = mg.generators * h
    relations = [{c * h + d: e for c, e in r} for r in mg.lattice.terms for d in range(h)]
    relations += [
        {c * h + d: e for d, e in s} for c in range(mg.generators) for s in mh.lattice.terms
    ]
    action = tuple(
        tuple(
            {c * h + d: x * y for c, x in arow.items() for d, y in brow.items()}
            for arow in am
            for brow in bm
        )
        for am in mg.action
        for bm in mh.action
    )
    module = RingModule(ring, g, relations, action)
    torsion = group_tor(mg.underlying_group(), mh.underlying_group())
    return module, torsion


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
    even_tor = direct_sum(group_tor(ge, ho), group_tor(go, he))
    odd_tor = direct_sum(group_tor(ge, he), group_tor(go, ho))
    return GradedKunnethPieces(even_tensor, odd_tensor, even_tor, odd_tor)


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
    if lattice.ring != module.ring:
        raise InputError("ideal and module live over different rings")
    xt = _int_terms(x, module.generators, "module element")
    sub = module.subgroup_class([_act(module.action, b, xt) for b in lattice.terms])
    # A cyclic factor d > 1 has a prime that mult lacks exactly when d does
    # not divide mult^d: each prime of d divides it fewer than d times.
    return sub.free_rank > 0 or any(pow(mult, d, d) for d in sub.torsion)
