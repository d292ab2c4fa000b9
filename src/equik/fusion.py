"""Based rings, augmentation ideals, and their power filtrations.

Every ring here is one ``BasedRing``: a free Z-module with a
distinguished basis, the unit at index 0, an augmentation (a ring map to
Z, stored as a coefficient vector) and a sparse structure table.
Character rings of finite groups are fusion rings: nonnegative structure
constants and positive dimensions.  The truncated polynomial ring that
models the circle, and its products with character rings, are based
rings that are not fusion rings, since their augmentation kills lam.

``cyclic_ring``, ``circle_truncation``, ``ring_product`` and the
fusion-table loader build every ring; downstream code reads ``rank``,
``labels``, ``aug``, ``is_fusion``, ``basis_mul(i, j)`` and
``mul_vec(a, b)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .errors import (
    CapExceededError,
    EquikError,
    FusionRingError,
    InputError,
    LatticeContainmentError,
    UnsupportedError,
)
from .intmat import (
    IntMatrix,
    as_int,
    hermite_rows,
    hermite_solve,
    hnf,
    kernel_basis,
)

DEFAULT_PRODUCT_CAP = 200_000


@dataclass(frozen=True)
class RingElement:
    """Coefficient vector of a ring element in the distinguished basis."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(int(c) for c in self.coefficients)
        )

    def __len__(self):
        return len(self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


def _coeffs(x):
    if isinstance(x, RingElement):
        return x.coefficients
    return tuple(int(c) for c in x)


@dataclass(frozen=True)
class BasedRing:
    """Based commutative ring with a sparse structure table.

    table[i][j] lists the nonzero (k, multiplicity) pairs of the product
    of basis elements i and j, in increasing k; aug[k] is the
    augmentation of basis element k.  Construction checks the table's
    shape, nonnegative constants, the unit law at index 0,
    commutativity, that aug is a ring map, and associativity
    exhaustively.  A fusion ring must also have positive dimensions,
    which the circle truncation fails; is_fusion is set by the
    constructor that built the ring, never derived from aug.
    """

    labels: tuple
    aug: tuple
    table: tuple
    is_fusion: bool

    def __post_init__(self):
        _validate_ring(self.labels, self.aug, self.table, self.is_fusion)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def basis_mul(self, i: int, j: int) -> tuple:
        out = [0] * self.rank
        for k, n in self.table[i][j]:
            out[k] = n
        return tuple(out)

    def mul_vec(self, a, b) -> tuple:
        r = self.rank
        out = [0] * r
        b_nonzero = [(j, b[j]) for j in range(r) if b[j]]
        for i in range(r):
            ai = a[i]
            if ai == 0:
                continue
            row = self.table[i]
            for j, bj in b_nonzero:
                c = ai * bj
                for k, n in row[j]:
                    out[k] += c * n
        return tuple(out)

    def one_vec(self) -> tuple:
        return tuple(1 if i == 0 else 0 for i in range(self.rank))

    def render_element(self, coeffs) -> str:
        terms = []
        for c, lab in zip(coeffs, self.labels):
            if c == 0:
                continue
            if c == 1:
                terms.append(f"+ {lab}")
            elif c == -1:
                terms.append(f"- {lab}")
            elif c > 0:
                terms.append(f"+ {c}*{lab}")
            else:
                terms.append(f"- {-c}*{lab}")
        if not terms:
            return "0"
        head = terms[0]
        head = head[2:] if head.startswith("+ ") else "-" + head[2:]
        return " ".join([head] + terms[1:])


# perfbench/tracer.py patches mul_vec and __init__ on these three names,
# the classes that held the ring surface before it became one type; they
# stay bound to BasedRing until the tracer names it directly.
FusionRing = CircleRingTruncation = MixedProductRing = BasedRing


def _validate_ring(labels, aug, table, is_fusion):
    r = len(labels)
    if r == 0:
        raise FusionRingError("rank", (), "a based ring needs at least the unit")
    if len(aug) != r or len(table) != r:
        raise FusionRingError("shape", (), "labels, aug and table sizes disagree")
    if aug[0] != 1:
        raise FusionRingError("unit dimension", (0,), f"dims[0] = {aug[0]}")
    if is_fusion:
        for i, d in enumerate(aug):
            if d < 1:
                raise FusionRingError("positive dimensions", (i,), f"dims[{i}] = {d}")
    for i in range(r):
        if len(table[i]) != r:
            raise FusionRingError("shape", (i,))
        for j in range(r):
            last = -1
            for k, n in table[i][j]:
                if not last < k < r or n == 0:
                    raise FusionRingError("shape", (i, j))
                if n < 0:
                    raise FusionRingError("nonnegativity", (i, j, k))
                last = k
    for j in range(r):
        ej = ((j, 1),)
        if table[0][j] != ej:
            raise FusionRingError("unit law", (0, j))
        if table[j][0] != ej:
            raise FusionRingError("unit law", (j, 0))
    for i in range(r):
        for j in range(i, r):
            if table[i][j] != table[j][i]:
                raise FusionRingError("commutativity", (i, j))
    for i in range(r):
        for j in range(r):
            total = sum(n * aug[k] for k, n in table[i][j])
            if total != aug[i] * aug[j]:
                raise FusionRingError(
                    "dimension homomorphism",
                    (i, j),
                    f"sum N*dim = {total}, dims product = {aug[i] * aug[j]}",
                )
    # (e_i e_j) e_k = e_i (e_j e_k), summed over the nonzero constants only.
    for i in range(r):
        row_i = table[i]
        for j in range(r):
            cell_ij, row_j = row_i[j], table[j]
            for k in range(r):
                lhs = [0] * r
                for m, c in cell_ij:
                    for l, n in table[m][k]:
                        lhs[l] += c * n
                rhs = [0] * r
                for m, c in row_j[k]:
                    for l, n in row_i[m]:
                        rhs[l] += c * n
                if lhs != rhs:
                    l = next(x for x in range(r) if lhs[x] != rhs[x])
                    raise FusionRingError("associativity", (i, j, k, l))


def multiply(ring, a, b) -> RingElement:
    """Product of two elements; rejects coefficient vectors of wrong length."""
    av, bv = _coeffs(a), _coeffs(b)
    if len(av) != ring.rank or len(bv) != ring.rank:
        raise InputError(
            f"element length mismatch: ring rank {ring.rank}, "
            f"got {len(av)} and {len(bv)}"
        )
    return RingElement(ring.mul_vec(av, bv))


# ---------------------------------------------------------------------------
# Built-in rings
# ---------------------------------------------------------------------------


def cyclic_ring(n: int) -> BasedRing:
    """Character ring of the cyclic group of order n (all dims 1)."""
    if n < 1:
        raise InputError("cyclic ring needs order >= 1")
    labels = tuple("1" if k == 0 else ("chi" if k == 1 else f"chi^{k}") for k in range(n))
    table = tuple(tuple((((i + j) % n, 1),) for j in range(n)) for i in range(n))
    return BasedRing(labels, (1,) * n, table, is_fusion=True)


def circle_truncation(n: int) -> BasedRing:
    """Z[lam] / (lam^n): the circle's character ring cut at a power.

    The invertible class t = 1 - lam generates the ring; lam spans the
    augmentation ideal.  The augmentation sends lam to 0, so ``aug`` is
    the unit coordinate functional and the ring is not a fusion ring.
    """
    if n < 1:
        raise InputError("circle truncation needs order >= 1")
    labels = tuple("1" if k == 0 else ("lam" if k == 1 else f"lam^{k}") for k in range(n))
    aug = (1,) + (0,) * (n - 1)
    table = tuple(
        tuple(((i + j, 1),) if i + j < n else () for j in range(n)) for i in range(n)
    )
    return BasedRing(labels, aug, table, is_fusion=False)


def ring_product(r1: BasedRing, r2: BasedRing) -> BasedRing:
    """Tensor product ring on the paired basis (i1, i2) -> i1 * rank2 + i2.

    Each cell is the product of the factors' cells, so the table stays
    sparse and in increasing index order; the product is a fusion ring
    when both factors are.
    """
    n2 = r2.rank
    labels = tuple(f"({a},{b})" for a in r1.labels for b in r2.labels)
    aug = tuple(x * y for x in r1.aug for y in r2.aug)
    table = tuple(
        tuple(
            tuple((k1 * n2 + k2, m1 * m2) for k1, m1 in c1 for k2, m2 in c2)
            for c1 in row1
            for c2 in row2
        )
        for row1 in r1.table
        for row2 in r2.table
    )
    return BasedRing(labels, aug, table, r1.is_fusion and r2.is_fusion)


# ---------------------------------------------------------------------------
# Ideal lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealLattice:
    """A sublattice of a ring, closed under multiplication by the basis.

    The basis matrix is kept in row Hermite form; construction verifies
    both the normal form and the ideal-closure property, so any instance
    in flight is a genuine ideal presented canonically.
    """

    ring: object
    basis: IntMatrix

    def __post_init__(self):
        if self.basis.cols != self.ring.rank:
            raise InputError("ideal basis width must equal the ring rank")
        rows = [self.basis.row(i) for i in range(self.basis.rows)]
        canon = hermite_rows(rows, self.ring.rank)
        if tuple(rows) != canon:
            raise InputError("ideal basis is not in Hermite form")
        for i in range(self.ring.rank):
            ei = tuple(1 if k == i else 0 for k in range(self.ring.rank))
            for b in rows:
                prod = self.ring.mul_vec(ei, b)
                if hermite_solve(rows, prod) is None:
                    raise LatticeContainmentError(prod)

    @classmethod
    def from_rows(cls, ring, vectors) -> "IdealLattice":
        return cls.from_hermite_rows(ring, hermite_rows(vectors, ring.rank))

    @classmethod
    def from_hermite_rows(cls, ring, rows) -> "IdealLattice":
        """The lattice of rows already in Hermite form (still checked)."""
        basis = (
            IntMatrix.from_rows(rows, cols=ring.rank)
            if rows
            else IntMatrix.zeros(0, ring.rank)
        )
        return cls(ring, basis)

    @classmethod
    def zero(cls, ring) -> "IdealLattice":
        return cls(ring, IntMatrix.zeros(0, ring.rank))

    @classmethod
    def full(cls, ring) -> "IdealLattice":
        return cls(ring, IntMatrix.identity(ring.rank))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def rows(self) -> list:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def contains(self, vector) -> bool:
        return hermite_solve(self.rows(), _coeffs(vector)) is not None

    def solve(self, vector):
        return hermite_solve(self.rows(), _coeffs(vector))

    def content(self) -> int:
        """gcd of all basis entries (0 for the zero lattice)."""
        g = 0
        for e in self.basis.entries:
            g = gcd(g, e)
        return g


def augmentation_ideal(ring) -> IdealLattice:
    """Kernel of the dimension functional, as a canonical ideal lattice."""
    col = IntMatrix(ring.rank, 1, tuple(ring.aug))
    basis = kernel_basis(col)
    return IdealLattice(ring, basis)


def _higher_power_rows(ring, gens, cap, last=None):
    """Yield the Hermite rows of I^2, I^3, ... for I spanned by gens.

    Power k+1 is spanned by products of a Hermite basis of power k with
    the ideal generators; reducing after every level keeps the working
    set small.  The products formed over all levels so far count against
    the cap.  The generator ends after the first zero power.

    Given the last power wanted, a walk that would pass the cap before
    reaching it is refused as soon as that is certain: once a power has
    the rank of the one before, the two span the same space over Q, so
    every later power keeps that rank and each remaining level forms
    exactly rank * len(gens) products.
    """
    too_many = f"ideal power product cap exceeded ({cap} vectors)"
    rows = gens
    produced = 0
    level = 1
    while rows:
        products = []
        for b in rows:
            for g in gens:
                produced += 1
                if produced > cap:
                    raise CapExceededError(too_many)
                products.append(ring.mul_vec(b, g))
        next_rows = hermite_rows(products, ring.rank)
        level += 1
        if (
            last is not None
            and len(next_rows) == len(rows)
            and produced + (last - level) * len(next_rows) * len(gens) > cap
        ):
            raise CapExceededError(too_many)
        rows = next_rows
        yield rows


def ideal_powers(ring, cap: int = DEFAULT_PRODUCT_CAP):
    """Yield I^0, I^1, I^2, ... for the augmentation ideal I, in one pass.

    Once a power is zero, every later one is the zero lattice.
    """
    yield IdealLattice.full(ring)
    aug = augmentation_ideal(ring)
    yield aug
    for rows in _higher_power_rows(ring, aug.rows(), cap):
        yield IdealLattice.from_hermite_rows(ring, rows)
    zero = IdealLattice.zero(ring)
    while True:
        yield zero


def ideal_power(ring, n: int, cap: int = DEFAULT_PRODUCT_CAP) -> IdealLattice:
    """n-th power of the augmentation ideal as a lattice, as in ideal_powers.

    Only I and I^n are built as lattices, and the walk stops at the first
    zero power, so a large n on a nilpotent ideal returns at once; a
    large n on any other ideal fails on the cap as soon as the ranks of
    the powers stop falling.
    """
    if n < 0:
        raise InputError("ideal power needs n >= 0")
    if n == 0:
        return IdealLattice.full(ring)
    aug = augmentation_ideal(ring)
    rows = aug.rows()
    if n == 1 or not rows:
        return aug
    for k, rows in enumerate(_higher_power_rows(ring, rows, cap, n), start=2):
        if k == n or not rows:
            break
    return IdealLattice.from_hermite_rows(ring, rows)


def lattice_quotient(ring, outer: IdealLattice, inner: IdealLattice):
    """Isomorphism class of outer/inner; inner must sit inside outer."""
    from .abgroups import Presentation, normalize

    if outer.ring != ring or inner.ring != ring:
        raise InputError("quotient lattices must live over the given ring")
    outer_rows = outer.rows()
    rel = []
    for row in inner.rows():
        sol = hermite_solve(outer_rows, row)
        if sol is None:
            raise LatticeContainmentError(row)
        rel.append(sol)
    relmat = (
        IntMatrix.from_rows(rel, cols=outer.rank)
        if rel
        else IntMatrix.zeros(0, outer.rank)
    )
    return normalize(Presentation(outer.rank, relmat))


def regular_class_check(ring: BasedRing):
    """The regular class sum(dims_i * e_i) and whether the ideal kills it.

    Annihilation means b * reg = 0 for every augmentation-ideal basis
    vector b; for character rings this is the classical behaviour of the
    regular representation class.
    """
    reg = ring.aug
    ideal = augmentation_ideal(ring)
    ok = all(
        all(c == 0 for c in ring.mul_vec(b, reg)) for b in ideal.rows()
    )
    return RingElement(reg), ok


def regular_dimension(ring: BasedRing) -> int:
    return sum(d * d for d in ring.aug)


def lambda_expansion(p: int) -> tuple:
    """Coefficients (n_1, ..., n_(p-1)) with lam^p = sum n_j lam^j.

    Worked in the cyclic ring of odd order p >= 3 with lam = 1 - chi.
    The powers lam, ..., lam^(p-1) are a basis of the augmentation
    ideal, so the expansion exists and is unique; n_1 always comes out
    as -p.  Even p has no expansion of this shape and is rejected.
    """
    if p % 2 == 0:
        raise UnsupportedError(
            f"lambda expansion is only provided for odd p (got {p}): for even p "
            "the powers of lam do not span the augmentation ideal the same way"
        )
    if p < 3:
        raise InputError("lambda expansion needs p >= 3")
    ring = cyclic_ring(p)
    lam = tuple(1 if k == 0 else (-1 if k == 1 else 0) for k in range(p))
    powers = [lam]
    for _ in range(p - 1):
        powers.append(ring.mul_vec(powers[-1], lam))
    mat = IntMatrix.from_rows(powers[: p - 1], cols=p)
    res = hnf(mat)
    hrows = [res.H.row(i) for i in range(res.rank)]
    coords = hermite_solve(hrows, powers[p - 1])
    if coords is None or len(coords) != p - 1:
        raise InputError(f"lam^{p} is not in the span of lower powers")
    # pull back through the transform: target = coords . H = (coords . T) . M
    t = res.transform
    n = [0] * (p - 1)
    for i, c in enumerate(coords):
        if c:
            for j in range(p - 1):
                n[j] += c * t.entry(i, j)
    check = [0] * p
    for j, nj in enumerate(n, start=1):
        if nj:
            pw = powers[j - 1]
            for k in range(p):
                check[k] += nj * pw[k]
    if tuple(check) != powers[p - 1]:
        raise EquikError(f"back-substitution does not reproduce lam^{p}")
    return tuple(n)


def circle_ideal_image(n: int, j: int) -> IdealLattice:
    """Image of the j-th ideal power in the order-n circle truncation.

    Spanned by lam^j, ..., lam^(n-1); the zero lattice once j >= n.
    """
    if n < 1:
        raise InputError("circle truncation needs order >= 1")
    if j < 0:
        raise InputError("ideal power needs j >= 0")
    ring = circle_truncation(n)
    if j >= n:
        return IdealLattice.zero(ring)
    rows = [
        tuple(1 if k == d else 0 for k in range(n)) for d in range(j, n)
    ]
    return IdealLattice(ring, IntMatrix.from_rows(rows, cols=n))


# ---------------------------------------------------------------------------
# Ring tags and the fusion-table file format
# ---------------------------------------------------------------------------


def ring_from_tag(tag: str):
    """Resolve a built-in ring name: 'z<n>', products like 'z2xz3'."""
    t = tag.strip().lower()
    if "x" in t:
        parts = t.split("x")
        rings = [ring_from_tag(p) for p in parts]
        out = rings[0]
        for r in rings[1:]:
            out = ring_product(out, r)
        return out
    if t.startswith("z"):
        try:
            order = int(t[1:])
        except ValueError:
            raise UnsupportedError(f"unknown ring tag {tag!r}") from None
        return cyclic_ring(order)
    raise UnsupportedError(f"unknown ring tag {tag!r}")


def fusion_ring_from_json_dict(obj) -> BasedRing:
    """Build a fusion ring from the fusion-table object; axioms are re-checked.

    Shape: {"labels": [...], "dims": ["1", ...], "fusion": r x r lists of
    [k, multiplicity] pairs with decimal-string integers}.  Pairs that
    name the same k add up.
    """
    if not isinstance(obj, dict):
        raise InputError("fusion table must be a mapping")
    for field in ("labels", "dims", "fusion"):
        if field not in obj:
            raise InputError(f"fusion table missing field {field!r}")
    labels = tuple(str(s) for s in obj["labels"])
    r = len(labels)
    dims = tuple(as_int(d) for d in obj["dims"])
    if len(dims) != r:
        raise InputError("dims length must match labels")
    raw = obj["fusion"]
    if not isinstance(raw, list) or len(raw) != r:
        raise InputError("fusion must be an r x r table")
    table = []
    for i in range(r):
        if not isinstance(raw[i], list) or len(raw[i]) != r:
            raise InputError(f"fusion row {i} must have {r} cells")
        cells = []
        for j in range(r):
            cell = raw[i][j]
            if not isinstance(cell, list):
                raise InputError(f"fusion cell ({i},{j}) must be a list of pairs")
            mults = {}
            for pair in cell:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InputError(
                        f"fusion cell ({i},{j}) entries must be [index, multiplicity]"
                    )
                k, mult = as_int(pair[0]), as_int(pair[1])
                if not 0 <= k < r:
                    raise InputError(f"fusion cell ({i},{j}) has bad index {k}")
                mults[k] = mults.get(k, 0) + mult
            cells.append(tuple((k, n) for k, n in sorted(mults.items()) if n))
        table.append(tuple(cells))
    return BasedRing(labels, dims, tuple(table), is_fusion=True)


def from_fusion_file(path) -> BasedRing:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InputError(f"cannot parse fusion file {path}: {exc}") from None
    return fusion_ring_from_json_dict(obj)
