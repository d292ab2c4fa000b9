"""Modules over based rings used as equivariant K-theory models.

A RingModule is a finitely presented abelian group together with one
integer action matrix per ring basis element.  Construction re-checks
the module axioms (unit, commutation, compatibility with the structure
constants, invariance of the relation lattice), so anything that exists
is a genuine module presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, NamedTuple

from .abgroups import FgAbelianGroup, Presentation, normalize, tor as group_tor
from .errors import EquikError, InputError
from .fusion import (
    IdealLattice,
    circle_truncation,
    cyclic_ring,
    ideal_power,
    ideal_powers,
    ring_from_tag,
    ring_product,
)
from .intmat import IntMatrix, hermite_rows, hermite_solve


class ModuleInvariantError(InputError):
    """A module axiom failed; names the axiom and the offending indices."""

    def __init__(self, axiom, indices=()):
        self.axiom = axiom
        self.indices = tuple(indices)
        where = f" at indices {self.indices}" if self.indices else ""
        super().__init__(f"module axiom {axiom!r} violated{where}")


class RingModule:
    """Module presentation: generators, relation rows, action matrices."""

    def __init__(self, ring, generators: int, relations: IntMatrix, action, validate=True):
        if generators < 0:
            raise InputError("generator count must be nonnegative")
        if relations.cols != generators:
            raise InputError("relation width must equal the generator count")
        action = tuple(action)
        if len(action) != ring.rank:
            raise InputError("need one action matrix per ring basis element")
        for mat in action:
            if mat.shape != (generators, generators):
                raise InputError("action matrices must be generators x generators")
        self.ring = ring
        self.generators = generators
        self.relations = relations
        self.action = action
        self._rel_rows = hermite_rows(
            [relations.row(i) for i in range(relations.rows)], generators
        )
        if validate:
            self._validate()

    # -- relation-lattice membership ------------------------------------

    def in_relations(self, vector) -> bool:
        return hermite_solve(self._rel_rows, tuple(vector)) is not None

    def _matrix_vanishes(self, mat: IntMatrix) -> bool:
        return all(self.in_relations(mat.row(i)) for i in range(mat.rows))

    def _validate(self):
        g = self.generators
        ident = IntMatrix.identity(g)
        if not self._matrix_vanishes(self.action[0].sub(ident)):
            raise ModuleInvariantError("unit acts as identity", (0,))
        r = self.ring.rank
        for i in range(r):
            ai = self.action[i]
            for j in range(i, r):
                aj = self.action[j]
                pij = ai.mul(aj)
                pji = aj.mul(ai)
                if not self._matrix_vanishes(pij.sub(pji)):
                    raise ModuleInvariantError("actions commute", (i, j))
                acc = [0] * (g * g)
                for k, mult in self.ring.table[i][j]:
                    for idx, e in enumerate(self.action[k].entries):
                        if e:
                            acc[idx] += mult * e
                combo = IntMatrix(g, g, tuple(acc))
                if not self._matrix_vanishes(pij.sub(combo)):
                    raise ModuleInvariantError("fusion compatibility", (i, j))
        for i in range(r):
            ai = self.action[i]
            for row in self._rel_rows:
                moved = _vec_mat(row, ai)
                if not self.in_relations(moved):
                    raise ModuleInvariantError("relations are invariant", (i,))

    # -- queries ----------------------------------------------------------

    def underlying_group(self) -> FgAbelianGroup:
        return normalize(Presentation(self.generators, self.relations))

    def act(self, ring_vec, module_vec) -> tuple:
        """Image of a module vector under a ring element, as a raw vector."""
        ring_vec = tuple(ring_vec)
        if len(ring_vec) != self.ring.rank:
            raise InputError("ring element length must equal the ring rank")
        module_vec = tuple(module_vec)
        if len(module_vec) != self.generators:
            raise InputError("module element length must equal the generators")
        out = [0] * self.generators
        for i, c in enumerate(ring_vec):
            if c == 0:
                continue
            moved = _vec_mat(module_vec, self.action[i])
            for a in range(self.generators):
                out[a] += c * moved[a]
        return tuple(out)

    def subgroup_class(self, vectors) -> FgAbelianGroup:
        """Class of the subgroup generated by the vectors inside the module."""
        span_rows = [tuple(v) for v in vectors] + [tuple(r) for r in self._rel_rows]
        outer = hermite_rows(span_rows, self.generators)
        rel = []
        for row in self._rel_rows:
            sol = hermite_solve(outer, row)
            if sol is None:
                raise EquikError(f"relation {row} lies outside the span built from it")
            rel.append(sol)
        relmat = (
            IntMatrix.from_rows(rel, cols=len(outer))
            if rel
            else IntMatrix.zeros(0, len(outer))
        )
        return normalize(Presentation(len(outer), relmat))


def _vec_mat(vec, mat: IntMatrix) -> tuple:
    out = [0] * mat.cols
    for i, c in enumerate(vec):
        if c == 0:
            continue
        base = i * mat.cols
        for j in range(mat.cols):
            e = mat.entries[base + j]
            if e:
                out[j] += c * e
    return tuple(out)


def _mult_matrix(ring, i: int) -> IntMatrix:
    """Matrix of right multiplication by basis element i on the ring."""
    r = ring.rank
    rows = [ring.basis_mul(j, i) for j in range(r)]
    return IntMatrix.from_rows(rows, cols=r)


def truncated_ring_module(ring, n: int) -> RingModule:
    """The ring modulo its n-th augmentation-ideal power, as a module."""
    if n < 0:
        raise InputError("truncation order must be nonnegative")
    relations = ideal_power(ring, n).basis
    action = tuple(_mult_matrix(ring, i) for i in range(ring.rank))
    return RingModule(ring, ring.rank, relations, action)


def zero_module(ring) -> RingModule:
    return RingModule(
        ring,
        0,
        IntMatrix.zeros(0, 0),
        tuple(IntMatrix.zeros(0, 0) for _ in range(ring.rank)),
    )


def module_direct_sum(a: RingModule, b: RingModule) -> RingModule:
    if a.ring != b.ring:
        raise InputError("direct sum needs modules over the same ring")
    g = a.generators + b.generators
    rel_rows = []
    for i in range(a.relations.rows):
        rel_rows.append(list(a.relations.row(i)) + [0] * b.generators)
    for i in range(b.relations.rows):
        rel_rows.append([0] * a.generators + list(b.relations.row(i)))
    relations = (
        IntMatrix.from_rows(rel_rows, cols=g) if rel_rows else IntMatrix.zeros(0, g)
    )
    action = []
    for am, bm in zip(a.action, b.action):
        ent = [0] * (g * g)
        for i in range(a.generators):
            for j in range(a.generators):
                ent[i * g + j] = am.entry(i, j)
        off = a.generators
        for i in range(b.generators):
            for j in range(b.generators):
                ent[(off + i) * g + (off + j)] = bm.entry(i, j)
        action.append(IntMatrix(g, g, tuple(ent)))
    return RingModule(a.ring, g, relations, tuple(action))


# ---------------------------------------------------------------------------
# Model descriptors
# ---------------------------------------------------------------------------


class _LeafKind(NamedTuple):
    """A model kind that truncates one ring: its tag fields (name, type)
    in tag order, its ring, and the least order it instantiates at."""

    fields: tuple
    ring: Callable
    least_order: int


_LEAF_KINDS = {
    "trunc-z2": _LeafKind((("order", int),), lambda d: cyclic_ring(2), 1),
    "circle": _LeafKind((("order", int),), lambda d: circle_truncation(d.order), 1),
    "trunc": _LeafKind(
        (("ring", str), ("order", int)), lambda d: ring_from_tag(d.ring), 0
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
        text = text.strip()
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

    @classmethod
    def from_json_dict(cls, obj) -> "ModelDescriptor":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError("model descriptor object needs a kind")
        kind = obj["kind"]
        if kind == "tensor":
            return cls(
                "tensor",
                left=cls.from_json_dict(obj["left"]),
                right=cls.from_json_dict(obj["right"]),
            )
        fields = _leaf_kind(kind).fields
        return cls(kind, **{name: typ(obj[name]) for name, typ in fields})


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
    vectors = []
    for b in lattice.rows():
        for a in range(module.generators):
            gen = tuple(1 if x == a else 0 for x in range(module.generators))
            vectors.append(module.act(b, gen))
    return module.subgroup_class(vectors)


def max_nonvanishing_power(module: RingModule, cap: int = 16) -> int:
    """Largest n <= cap with a nontrivial ideal-power image, else -1.

    The images are nested, so the scan stops at the first trivial one.
    A module that is trivial to begin with returns -1.
    """
    if cap < 0:
        raise InputError("cap must be nonnegative")
    for n, lattice in zip(range(cap + 1), ideal_powers(module.ring)):
        if ideal_image(lattice, module).is_trivial:
            return n - 1
    return cap


def kunneth_pieces(mg: RingModule, mh: RingModule):
    """(tensor module over the product ring, Tor of the underlying groups).

    The tensor presentation is the Kronecker one: relations R x I and
    I x S, action matrices A_i x B_j.  The Tor piece is reported as a
    bare abelian group; no extension data is computed.
    """
    ring = ring_product(mg.ring, mh.ring)
    g = mg.generators * mh.generators
    ig = IntMatrix.identity(mg.generators)
    ih = IntMatrix.identity(mh.generators)
    left = mg.relations.kron(ih)
    right = ig.kron(mh.relations)
    relations = left.vstack(right) if g else IntMatrix.zeros(0, 0)
    action = tuple(
        am.kron(bm) for am in mg.action for bm in mh.action
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
    from .abgroups import direct_sum

    even_tor = direct_sum(group_tor(ge, ho), group_tor(go, he))
    odd_tor = direct_sum(group_tor(ge, he), group_tor(go, ho))
    return GradedKunnethPieces(even_tensor, odd_tensor, even_tor, odd_tor)


def factor_ideal_power(left_ring, right_ring, m: int) -> IdealLattice:
    """(I(left) x right)^m inside the product ring.

    Because the right factor is the whole ring, the m-th power is the
    span of u x e_j over a basis u of I(left)^m and the right basis.
    """
    lat = ideal_power(left_ring, m)
    prod = ring_product(left_ring, right_ring)
    rr = right_ring.rank
    rows = []
    for u in lat.rows():
        for j in range(rr):
            row = [0] * (len(u) * rr)
            for i, c in enumerate(u):
                if c:
                    row[i * rr + j] = c
            rows.append(tuple(row))
    return IdealLattice.from_rows(prod, rows)


def _strip_primes(d: int, n: int) -> int:
    """Remove every prime factor of n from d."""
    if d == 0:
        return 0
    while True:
        g = gcd(d, n)
        if g == 1:
            return d
        while d % g == 0:
            d //= g


def element_stable_nonvanishing(module: RingModule, x, n: int, mult: int) -> bool:
    """Does I^n keep hitting x after arbitrarily many multiplications by mult?

    True exactly when the subgroup I^n . x contains an element of
    infinite order, or one of finite order coprime to mult.  With
    mult = 1 this is just I^n . x != 0.
    """
    if mult < 1:
        raise InputError("multiplier must be >= 1")
    xv = tuple(int(c) for c in x)
    if len(xv) != module.generators:
        raise InputError("element length must match the module generators")
    lattice = ideal_power(module.ring, n)
    images = [module.act(b, xv) for b in lattice.rows()]
    sub = module.subgroup_class(images)
    if sub.free_rank > 0:
        return True
    return any(_strip_primes(d, mult) > 1 for d in sub.torsion)
