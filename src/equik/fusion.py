"""Fusion rings, augmentation ideals, and their power filtrations.

A fusion ring is a free Z-module with a distinguished basis, nonnegative
structure constants, a unit at index 0, and a dimension homomorphism to
Z.  Character rings of finite groups are the motivating examples; the
truncated polynomial ring modelling the circle is carried alongside with
the same element and lattice machinery.

Ring objects expose a small common surface used everywhere downstream:
``rank``, ``labels``, ``aug`` (the dimension functional as a coefficient
vector), ``basis_mul(i, j)`` and ``mul_vec(a, b)``.
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
class FusionRing:
    """Based ring with nonnegative structure constants.

    fusion[i][j][k] is the multiplicity of basis element k in the product
    of basis elements i and j.  Construction checks commutativity, the
    unit law at index 0, the dimension homomorphism, and associativity
    exhaustively, so an instance that exists is a genuine fusion ring.
    """

    labels: tuple
    dims: tuple
    fusion: tuple

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        dims = tuple(int(d) for d in self.dims)
        fusion = tuple(
            tuple(tuple(int(n) for n in row) for row in plane) for plane in self.fusion
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "fusion", fusion)
        _validate_fusion(labels, dims, fusion)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def aug(self) -> tuple:
        return self.dims

    def basis_mul(self, i: int, j: int) -> tuple:
        return self.fusion[i][j]

    def mul_vec(self, a, b) -> tuple:
        r = self.rank
        out = [0] * r
        for i in range(r):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(r):
                bj = b[j]
                if bj == 0:
                    continue
                c = ai * bj
                for k, n in enumerate(self.fusion[i][j]):
                    if n:
                        out[k] += c * n
        return tuple(out)

    def one_vec(self) -> tuple:
        return tuple(1 if i == 0 else 0 for i in range(self.rank))

    def render_element(self, coeffs) -> str:
        return render_element(self.labels, coeffs)


def _validate_fusion(labels, dims, fusion):
    r = len(labels)
    if r == 0:
        raise FusionRingError("rank", (), "a fusion ring needs at least the unit")
    if len(dims) != r or len(fusion) != r:
        raise FusionRingError("shape", (), "labels, dims and fusion sizes disagree")
    if dims[0] != 1:
        raise FusionRingError("unit dimension", (0,), f"dims[0] = {dims[0]}")
    for i, d in enumerate(dims):
        if d < 1:
            raise FusionRingError("positive dimensions", (i,), f"dims[{i}] = {d}")
    for i in range(r):
        if len(fusion[i]) != r:
            raise FusionRingError("shape", (i,))
        for j in range(r):
            if len(fusion[i][j]) != r:
                raise FusionRingError("shape", (i, j))
            for k in range(r):
                if fusion[i][j][k] < 0:
                    raise FusionRingError("nonnegativity", (i, j, k))
    for j in range(r):
        ej = tuple(1 if k == j else 0 for k in range(r))
        if fusion[0][j] != ej:
            raise FusionRingError("unit law", (0, j))
        if fusion[j][0] != ej:
            raise FusionRingError("unit law", (j, 0))
    for i in range(r):
        for j in range(i, r):
            if fusion[i][j] != fusion[j][i]:
                raise FusionRingError("commutativity", (i, j))
    for i in range(r):
        for j in range(r):
            total = sum(fusion[i][j][k] * dims[k] for k in range(r))
            if total != dims[i] * dims[j]:
                raise FusionRingError(
                    "dimension homomorphism",
                    (i, j),
                    f"sum N*dim = {total}, dims product = {dims[i] * dims[j]}",
                )
    # (e_i e_j) e_k = e_i (e_j e_k), summed over the nonzero constants only.
    nonzero = [
        [[(k, n) for k, n in enumerate(fusion[i][j]) if n] for j in range(r)]
        for i in range(r)
    ]
    for i in range(r):
        nz_i = nonzero[i]
        for j in range(r):
            nz_ij, nz_j = nz_i[j], nonzero[j]
            for k in range(r):
                lhs = [0] * r
                for m, c in nz_ij:
                    for l, n in nonzero[m][k]:
                        lhs[l] += c * n
                rhs = [0] * r
                for m, c in nz_j[k]:
                    for l, n in nz_i[m]:
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


def render_element(labels, coeffs) -> str:
    terms = []
    for c, lab in zip(coeffs, labels):
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


# ---------------------------------------------------------------------------
# Built-in rings
# ---------------------------------------------------------------------------


def cyclic_ring(n: int) -> FusionRing:
    """Character ring of the cyclic group of order n (all dims 1)."""
    if n < 1:
        raise InputError("cyclic ring needs order >= 1")
    labels = tuple("1" if k == 0 else ("chi" if k == 1 else f"chi^{k}") for k in range(n))
    dims = (1,) * n
    fusion = tuple(
        tuple(
            tuple(1 if k == (i + j) % n else 0 for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    return FusionRing(labels, dims, fusion)


def product_ring(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """Tensor product ring on the paired basis, Kronecker structure data."""
    n1, n2 = r1.rank, r2.rank
    labels = tuple(
        f"({a},{b})" for a in r1.labels for b in r2.labels
    )
    dims = tuple(d1 * d2 for d1 in r1.dims for d2 in r2.dims)
    fusion = []
    for i1 in range(n1):
        for i2 in range(n2):
            plane = []
            for j1 in range(n1):
                for j2 in range(n2):
                    row1 = r1.fusion[i1][j1]
                    row2 = r2.fusion[i2][j2]
                    plane.append(tuple(a * b for a in row1 for b in row2))
            fusion.append(tuple(plane))
    return FusionRing(labels, dims, tuple(fusion))


@dataclass(frozen=True)
class CircleRingTruncation:
    """Z[lam] / (lam^order): the circle's character ring cut at a power.

    The invertible class t = 1 - lam generates the ring; lam spans the
    augmentation ideal.  The augmentation sends lam to 0, so ``aug`` is
    the unit coordinate functional.
    """

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise InputError("circle truncation needs order >= 1")

    @property
    def rank(self) -> int:
        return self.order

    @property
    def labels(self) -> tuple:
        return tuple(
            "1" if k == 0 else ("lam" if k == 1 else f"lam^{k}")
            for k in range(self.order)
        )

    @property
    def aug(self) -> tuple:
        return tuple(1 if k == 0 else 0 for k in range(self.order))

    def basis_mul(self, i: int, j: int) -> tuple:
        n = self.order
        return tuple(1 if (k == i + j and i + j < n) else 0 for k in range(n))

    def mul_vec(self, a, b) -> tuple:
        n = self.order
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if ai == 0:
                continue
            top = n - i
            for j in range(min(n, top)):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return tuple(out)

    def one_vec(self) -> tuple:
        return tuple(1 if k == 0 else 0 for k in range(self.order))

    def unit_class_vec(self) -> tuple:
        """t = 1 - lam, the invertible generator."""
        return tuple(
            1 if k == 0 else (-1 if k == 1 else 0) for k in range(self.order)
        )

    def unit_class_inverse_vec(self) -> tuple:
        """(1 - lam)^-1 = 1 + lam + ... + lam^(order-1)."""
        return (1,) * self.order

    def render_element(self, coeffs) -> str:
        return render_element(self.labels, coeffs)


def circle_truncation(n: int) -> CircleRingTruncation:
    return CircleRingTruncation(n)


@dataclass(frozen=True)
class MixedProductRing:
    """Tensor product of two based rings when at least one is not fusion.

    Same paired-basis Kronecker structure as product_ring, but without
    the positivity and dimension axioms (the circle truncation has
    non-positive 'dims').  Factor validity is inherited.
    """

    left: object
    right: object

    @property
    def rank(self) -> int:
        return self.left.rank * self.right.rank

    @property
    def labels(self) -> tuple:
        return tuple(
            f"({a},{b})" for a in self.left.labels for b in self.right.labels
        )

    @property
    def aug(self) -> tuple:
        return tuple(x * y for x in self.left.aug for y in self.right.aug)

    def basis_mul(self, i: int, j: int) -> tuple:
        n2 = self.right.rank
        i1, i2 = divmod(i, n2)
        j1, j2 = divmod(j, n2)
        row1 = self.left.basis_mul(i1, j1)
        row2 = self.right.basis_mul(i2, j2)
        return tuple(a * b for a in row1 for b in row2)

    def mul_vec(self, a, b) -> tuple:
        r = self.rank
        out = [0] * r
        for i in range(r):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(r):
                bj = b[j]
                if bj == 0:
                    continue
                c = ai * bj
                for k, n in enumerate(self.basis_mul(i, j)):
                    if n:
                        out[k] += c * n
        return tuple(out)

    def one_vec(self) -> tuple:
        return tuple(1 if k == 0 else 0 for k in range(self.rank))

    def render_element(self, coeffs) -> str:
        return render_element(self.labels, coeffs)


def ring_product(r1, r2):
    """Product ring; stays a FusionRing when both factors are."""
    if isinstance(r1, FusionRing) and isinstance(r2, FusionRing):
        return product_ring(r1, r2)
    return MixedProductRing(r1, r2)


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


def _higher_power_rows(ring, gens, cap):
    """Yield the Hermite rows of I^2, I^3, ... for I spanned by gens.

    Power k+1 is spanned by products of a Hermite basis of power k with
    the ideal generators; reducing after every level keeps the working
    set small.  The products formed over all levels so far count against
    the cap.  The generator ends after the first zero power.
    """
    rows = gens
    produced = 0
    while rows:
        products = []
        for b in rows:
            for g in gens:
                produced += 1
                if produced > cap:
                    raise CapExceededError(
                        f"ideal power product cap exceeded ({cap} vectors)"
                    )
                products.append(ring.mul_vec(b, g))
        rows = hermite_rows(products, ring.rank)
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
    zero power, so a large n on a nilpotent ideal returns at once.
    """
    if n < 0:
        raise InputError("ideal power needs n >= 0")
    if n == 0:
        return IdealLattice.full(ring)
    aug = augmentation_ideal(ring)
    rows = aug.rows()
    if n == 1 or not rows:
        return aug
    for k, rows in enumerate(_higher_power_rows(ring, rows, cap), start=2):
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


def regular_class_check(ring: FusionRing):
    """The regular class sum(dims_i * e_i) and whether the ideal kills it.

    Annihilation means b * reg = 0 for every augmentation-ideal basis
    vector b; for character rings this is the classical behaviour of the
    regular representation class.
    """
    reg = tuple(ring.dims)
    ideal = augmentation_ideal(ring)
    ok = all(
        all(c == 0 for c in ring.mul_vec(b, reg)) for b in ideal.rows()
    )
    return RingElement(reg), ok


def regular_dimension(ring: FusionRing) -> int:
    return sum(d * d for d in ring.dims)


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
            out = product_ring(out, r)
        return out
    if t.startswith("z"):
        try:
            order = int(t[1:])
        except ValueError:
            raise UnsupportedError(f"unknown ring tag {tag!r}") from None
        return cyclic_ring(order)
    raise UnsupportedError(f"unknown ring tag {tag!r}")


def _as_int(value):
    if isinstance(value, bool):
        raise InputError("expected integer, got boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InputError(f"expected decimal integer, got {value!r}") from None
    raise InputError(f"expected integer, got {type(value).__name__}")


def fusion_ring_from_json_dict(obj) -> FusionRing:
    """Build a ring from the fusion-table object; axioms are re-checked.

    Shape: {"labels": [...], "dims": ["1", ...], "fusion": r x r lists of
    [k, multiplicity] pairs with decimal-string integers}.
    """
    if not isinstance(obj, dict):
        raise InputError("fusion table must be a mapping")
    for field in ("labels", "dims", "fusion"):
        if field not in obj:
            raise InputError(f"fusion table missing field {field!r}")
    labels = [str(s) for s in obj["labels"]]
    r = len(labels)
    dims = [_as_int(d) for d in obj["dims"]]
    if len(dims) != r:
        raise InputError("dims length must match labels")
    raw = obj["fusion"]
    if not isinstance(raw, list) or len(raw) != r:
        raise InputError("fusion must be an r x r table")
    fusion = []
    for i in range(r):
        if not isinstance(raw[i], list) or len(raw[i]) != r:
            raise InputError(f"fusion row {i} must have {r} cells")
        plane = []
        for j in range(r):
            row = [0] * r
            cell = raw[i][j]
            if not isinstance(cell, list):
                raise InputError(f"fusion cell ({i},{j}) must be a list of pairs")
            for pair in cell:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InputError(
                        f"fusion cell ({i},{j}) entries must be [index, multiplicity]"
                    )
                k, mult = _as_int(pair[0]), _as_int(pair[1])
                if not 0 <= k < r:
                    raise InputError(f"fusion cell ({i},{j}) has bad index {k}")
                row[k] += mult
            plane.append(tuple(row))
        fusion.append(tuple(plane))
    return FusionRing(tuple(labels), tuple(dims), tuple(fusion))


def from_fusion_file(path) -> FusionRing:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InputError(f"cannot parse fusion file {path}: {exc}") from None
    return fusion_ring_from_json_dict(obj)
