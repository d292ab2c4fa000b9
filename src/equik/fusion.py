"""Based rings, augmentation ideals, and their power filtrations.

Every ring here is one ``BasedRing``: a free Z-module with a
distinguished basis, the unit at index 0, an augmentation (a ring map to
Z, stored as a coefficient vector) and a sparse structure table.
Character rings of finite groups are fusion rings: nonnegative structure
constants and positive dimensions.  The truncated polynomial ring that
models the circle, and its products with character rings, are based
rings that are not fusion rings, since their augmentation kills lam.
BasedRing, RingElement and IdealLattice are errors.Record classes.

``cyclic_ring``, ``circle_truncation``, ``ring_product`` (each charging
the r^3 work units of the least axiom check before its table) and the
fusion-table loader build every ring; downstream code reads ``rank``,
``labels``, ``aug``, ``is_fusion`` and ``table``.  _row_times forms
every product on term rows, ``multiply``, ``mul_vec(a, b)`` and the
products of kmodules, whose module tables share the ring's cell format,
included; ring_product's table and the Kunneth module's are both _kron.
A ring given to BasedRing or read from a fusion table is checked in
full.  The three builders pass _trusted=True and skip the check, since
their formulas make based rings; every ring still finds its generators
and charges Light's test, so the budget refuses the same rings.  The
check works on the sparse table: one pass per cell checks its shape
and sums its dimension, the generator search inserts sparse products
into an echelon basis (intmat.echelon_insert), and Light's test, which
checks a module's table modulo its relations too, reads a cell in place
where a product is a single basis element.

Ideal lattices and the ideal-power walk carry their rows as term rows:
the nonzero (column, entry) pairs of a row in increasing column, pivot
first, as in intmat.Lattice.terms.  Products with a generator visit only
a row's nonzeros, intmat.hermite_terms reduces them, and a row becomes
an int tuple of the ring's rank only where a caller reads
``IdealLattice.basis``.  Tuples on hot paths are built from lists, not
generators, for the reason given in intmat.Lattice.rows.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import EquikError, FusionRingError, InputError, LatticeContainmentError
from .errors import Record, UnsupportedError, charge, decimal, read_json
from .abgroups import quotient
from .intmat import Lattice, _subtract, as_int, echelon_insert, hermite_terms, term_product


class RingElement(Record):
    """Coefficient vector of a ring element in the distinguished basis."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients", _coeffs(coefficients))

    def __len__(self):
        return len(self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


def _coeffs(x) -> tuple:
    """The coefficients of a RingElement, or x's entries as a tuple; those
    must be ints (not bools), as module relations are."""
    if isinstance(x, RingElement):
        return x.coefficients
    out = tuple(x)
    if not all(type(c) is int for c in out):
        raise InputError("ring element coefficients must be ints")
    return out


class BasedRing(Record):
    """Based commutative ring with a sparse structure table.

    table[i][j] lists the nonzero (k, multiplicity) pairs of the product
    of basis elements i and j, in increasing k; aug[k] is the
    augmentation of basis element k.  Construction checks the table's
    shape, nonnegative constants, the unit law at index 0,
    commutativity, that aug is a ring map, and associativity by Light's
    test on the basis generators it finds (kept as ``generators``, which
    equality, hashing and repr leave out); _trusted=True skips all but
    the search and its charge.  A fusion ring must also have
    positive dimensions, which the circle truncation fails; is_fusion is
    set by the constructor that built the ring, never derived from aug.
    """

    _fields = ("labels", "aug", "table", "is_fusion")
    __slots__ = _fields + ("generators",)

    def __init__(self, labels: tuple, aug: tuple, table: tuple, is_fusion: bool, *, _trusted=False):
        if not _trusted:
            _check_table(labels, aug, table, is_fusion)
        r, gens = len(labels), _basis_generators(table)
        charge(r**3 * len(gens), f"a rank-{r} ring")  # Light's test: r^2 |S| r-wide sums
        if not _trusted and _associativity_witness(table, gens):
            raise FusionRingError("associativity", _associativity_witness(table, range(r)))
        for name, value in zip(self.__slots__, (labels, aug, table, is_fusion, gens)):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def mul_vec(self, a, b) -> tuple:
        """The product of the int vectors a and b, as an int tuple; only
        their first rank entries are read."""
        return _vector_product(self.table, a, b)

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


def _check_table(labels, aug, table, is_fusion):
    r = len(labels)
    if r == 0:
        raise FusionRingError("rank", (), "a based ring needs at least the unit")
    if len(aug) != r or len(table) != r:
        raise FusionRingError("shape", (), "labels, aug and table sizes disagree")
    if not all(type(d) is int for d in aug):
        raise FusionRingError("shape", (), "dims must be ints")
    if aug[0] != 1:
        raise FusionRingError("unit dimension", (0,), f"dims[0] = {aug[0]}")
    if is_fusion:
        for i, d in enumerate(aug):
            if d < 1:
                raise FusionRingError("positive dimensions", (i,), f"dims[{i}] = {d}")
    # One pass per cell checks its shape and sign and sums its dimension;
    # the first cell whose sum is off is raised after the two checks below.
    off = None
    for i, row in enumerate(table):
        if len(row) != r:
            raise FusionRingError("shape", (i,))
        d = aug[i]
        for j, cell in enumerate(row):
            last = total = 0
            for k, n in cell:
                if type(k) is not int or type(n) is not int or not last <= k < r or n == 0:
                    raise FusionRingError("shape", (i, j))
                if n < 0:
                    raise FusionRingError("nonnegativity", (i, j, k))
                last, total = k + 1, total + n * aug[k]
            if total != d * aug[j] and off is None:
                off = i, j, total
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
    if off is not None:
        i, j, total = off
        raise FusionRingError(
            "dimension homomorphism",
            (i, j),
            f"sum N*dim = {total}, dims product = {aug[i] * aug[j]}",
        )


def _basis_generators(table) -> tuple:
    """Basis indices S whose left-normed products 1, s, (s s') ... span Z^r.

    S is chosen greedily in index order: s joins when e_s lies outside
    the span L of the products found so far.  Each product found is
    multiplied on the right by each index in S and inserted into L's
    echelon basis (intmat.echelon_insert, on sparse rows) when it falls
    outside, so by bilinearity L ends closed under right multiplication
    by S: it is the span of those products.
    """
    basis, found, gens, pending = {}, [], [], []
    for s in range(len(table)):
        e_s = ((s, 1),)
        if not echelon_insert(basis, dict(e_s)):
            continue
        if s:  # e_0, the unit, is the empty product
            gens.append(s)
            pending += [(v, s) for v in found]
        found.append(e_s)
        pending += [(e_s, g) for g in gens]
        while pending:
            v, g = pending.pop()
            prod = _row_times(table, v, ((g, 1),))
            if echelon_insert(basis, dict(prod)):
                found.append(prod.items())
                pending += [(prod.items(), h) for h in gens]
    return tuple(gens)


def _associativity_witness(table, middle, t=None, lattice=None):
    """The first (i, j, k, l), j in middle, where (e_i e_j) e_k and
    e_i (e_j e_k) differ at l, or None.  Given a module's table t over
    the ring and its relation lattice, e_i is a module generator and the
    sides must differ by a vector outside the lattice.

    Light's test passes the generators as middle: the a with
    (x a) y = x (a y) for all x, y form a subring, holding 1 by the unit
    law, so it is the whole ring once it holds a generating set.  Where
    e_i e_j = e_m or e_j e_k = e_m' is a single basis element, that side
    is the cell t[m][k] or t[i][m'] itself, and the sides are compared as
    whole rows of cells before any one is reduced.
    """
    t = table if t is None else t
    e = _unit_terms(range(max(len(t), len(table))))
    right = {j: [(_unit(c), c) for c in table[j]] for j in middle}  # e_j e_k = e_m'
    for i, row in enumerate(t):
        for j in middle:
            m = _unit(row[j])  # e_i e_j = e_m
            lhs = t[m] if m is not None else tuple([_times(t, row[j], c) for c in e[: len(table)]])
            rhs = tuple([_times(t, e[i], c) if n is None else row[n] for n, c in right[j]])
            found = _difference(lhs, rhs, lattice) if lhs != rhs else None
            if found is not None:
                return i, j, found[0], min(found[1])
    return None


def _difference(xs, ys, lattice=None):
    """The first (k, d) with d = xs[k] - ys[k] nonzero, or outside the
    lattice when one is given; xs and ys hold term rows, in which a
    column may repeat, and d is a {column: entry} map."""
    for k, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            d = {}
            _subtract(d, -1, x)
            _subtract(d, 1, y)
            if d and (lattice is None or lattice.solve_map(dict(d)) is None):
                return k, d
    return None


def multiply(ring, a, b) -> RingElement:
    """Product of two elements; rejects coefficient vectors of wrong length."""
    av, bv = _coeffs(a), _coeffs(b)
    if len(av) != ring.rank or len(bv) != ring.rank:
        raise InputError(
            f"element length mismatch: ring rank {ring.rank}, "
            f"got {len(av)} and {len(bv)}"
        )
    return RingElement(_vector_product(ring.table, av, bv))


# ---------------------------------------------------------------------------
# Built-in rings
# ---------------------------------------------------------------------------


def cyclic_ring(n: int) -> BasedRing:
    """Character ring of the cyclic group of order n (all dims 1)."""
    if n < 1:
        raise InputError("cyclic ring needs order >= 1")
    charge(n**3, f"a rank-{n} ring")
    labels = tuple(["1" if k == 0 else ("chi" if k == 1 else f"chi^{k}") for k in range(n)])
    table = tuple([tuple([(((i + j) % n, 1),) for j in range(n)]) for i in range(n)])
    return BasedRing(labels, (1,) * n, table, True, _trusted=True)  # Z[Z/n], a fusion ring


def circle_truncation(n: int) -> BasedRing:
    """Z[lam] / (lam^n): the circle's character ring cut at a power.

    The invertible class t = 1 - lam generates the ring; lam spans the
    augmentation ideal.  The augmentation sends lam to 0, so ``aug`` is
    the unit coordinate functional and the ring is not a fusion ring.
    """
    if n < 1:
        raise InputError("circle truncation needs order >= 1")
    charge(n**3, f"a rank-{n} ring")
    labels = tuple(["1" if k == 0 else ("lam" if k == 1 else f"lam^{k}") for k in range(n)])
    aug = (1,) + (0,) * (n - 1)
    table = tuple(
        [tuple([((i + j, 1),) if i + j < n else () for j in range(n)]) for i in range(n)]
    )
    return BasedRing(labels, aug, table, False, _trusted=True)  # Z[lam]/(lam^n), a based ring


def ring_product(r1: BasedRing, r2: BasedRing) -> BasedRing:
    """Tensor product ring on the paired basis (i1, i2) -> i1 * rank2 + i2.

    Each cell is the product of the factors' cells, so the table stays
    sparse and in increasing index order; the product is a fusion ring
    when both factors are.
    """
    r = r1.rank * r2.rank
    charge(r**3, f"a rank-{r} ring")
    labels = tuple([f"({a},{b})" for a in r1.labels for b in r2.labels])
    aug = tuple([x * y for x in r1.aug for y in r2.aug])
    table = _kron(r1.table, r2.table)  # a product of two based rings is one
    return BasedRing(labels, aug, table, r1.is_fusion and r2.is_fusion, _trusted=True)


def _kron(t1, t2) -> tuple:
    """The Kronecker product of two structure tables, rows and columns
    paired as the basis of ring_product is: ring_product's table, and the
    tensor module's table in kmodules.kunneth_pieces."""
    n2 = len(t2)
    return tuple(
        [
            tuple(
                [
                    tuple([(k1 * n2 + k2, m1 * m2) for k1, m1 in c1 for k2, m2 in c2])
                    for c1 in row1
                    for c2 in row2
                ]
            )
            for row1 in t1
            for row2 in t2
        ]
    )


# ---------------------------------------------------------------------------
# Ideal lattices
# ---------------------------------------------------------------------------


class IdealLattice(Record):
    """A sublattice of a ring, closed under multiplication by the basis.

    The lattice is held by its rows in row Hermite form as term rows, the
    nonzero (column, entry) pairs of each row with the pivot first, as in
    intmat.Lattice; basis gives them as a tuple of int tuples of the
    ring's rank, built when first read.  IdealLattice(ring, rows) takes
    those int rows, IdealLattice(ring, terms=...) term rows as
    intmat.hermite_terms returns them.  Construction verifies both the
    normal form and the ideal-closure property unless _trusted=True,
    which only the library's full, zero, power and image ideals pass, as
    Hermite ideals by construction; so any instance in flight is a
    genuine ideal presented canonically.  Closure is checked
    on the ring's generators: the a with L a in L form a subring of the
    associative ring, so they are all of it.  Only on failure does every
    basis element run, to name the first product outside.
    """

    __slots__ = _fields = ("ring", "lattice")

    def __init__(self, ring, basis=(), terms=None, *, _trusted=False):
        if terms is None:
            terms = Lattice.from_rows(basis, ring.rank).terms
        if not (_trusted or _is_hermite(terms)):
            raise InputError("ideal basis is not in Hermite form")
        lattice = Lattice(tuple(terms), ring.rank)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "lattice", lattice)
        if not _trusted and _product_outside(ring.table, lattice, ring.generators) is not None:
            raise LatticeContainmentError(_product_outside(ring.table, lattice, range(ring.rank)))

    @classmethod
    def from_rows(cls, ring, vectors) -> "IdealLattice":
        return cls(ring, terms=Lattice.span(vectors, ring.rank).terms)

    @classmethod
    def zero(cls, ring) -> "IdealLattice":
        return cls(ring, terms=(), _trusted=True)  # 0 is an ideal

    @classmethod
    def full(cls, ring) -> "IdealLattice":
        return cls(ring, terms=_unit_terms(range(ring.rank)), _trusted=True)  # so is the ring

    @property
    def basis(self) -> tuple:
        return self.lattice.rows

    @property
    def terms(self) -> tuple:
        return self.lattice.terms

    @property
    def rank(self) -> int:
        return len(self.lattice.terms)

    def rows(self) -> list:
        return list(self.basis)

    def contains(self, vector) -> bool:
        return self.solve(vector) is not None

    def solve(self, vector):
        """Coordinates of a RingElement or int vector in the basis, or None."""
        if isinstance(vector, RingElement):
            vector = vector.coefficients
        return self.lattice.solve(vector)

    def content(self) -> int:
        """gcd of all basis entries (0 for the zero lattice)."""
        g = 0
        for row in self.lattice.terms:
            for _, e in row:
                g = gcd(g, e)
        return g


def _is_hermite(terms) -> bool:
    """Whether term rows are in row Hermite form: no zero row, positive
    pivots in strictly increasing columns, and every entry above a pivot
    in [0, pivot).  The Hermite basis of a lattice is unique, so these
    are exactly the rows that hermite_terms leaves unchanged."""
    pivots, last = {}, -1
    for row in terms:
        if not row:
            return False
        col, lead = row[0]
        if col <= last or lead <= 0:
            return False
        pivots[col], last = lead, col
    for row in terms:
        for col, e in row[1:]:
            lead = pivots.get(col)
            if lead is not None and not 0 <= e < lead:
                return False
    return True


def _unit_terms(indices) -> tuple:
    """The term rows of the unit vectors e_i, i in indices."""
    return tuple([((i, 1),) for i in indices])


def _row_times(table, a, b) -> dict:
    """a b for the term rows a and b, as a {column: entry} map with no
    zeros; only their nonzeros and the cells table[j][s] they meet are
    visited.  Every ring product is formed here."""
    out = {}
    for s, c in b:
        for j, e in a:
            ce = c * e
            for k, n in table[j][s]:
                out[k] = out.get(k, 0) + ce * n
    return {k: e for k, e in out.items() if e}


def _unit(row):
    """k when the term row is the one term (k, 1), else None."""
    return row[0][0] if len(row) == 1 and row[0][1] == 1 else None


def _times(t, x, b) -> tuple:
    """x b on the table t as a term row in increasing column, as cells are;
    the cell t[k][m] itself if x = e_k and b = e_m."""
    k, m = _unit(x), _unit(b)
    if k is not None and m is not None:
        return t[k][m]
    return tuple(sorted(_row_times(t, x, b).items()))


def _terms(v, width: int) -> list:
    """The term row of the first width entries of the int vector v."""
    return [(j, v[j]) for j in range(width) if v[j]]


def _vector_product(table, a, b) -> tuple:
    """a b for the first len(table) entries of the int vectors a and b,
    as an int tuple."""
    r = len(table)
    out = _row_times(table, _terms(a, r), _terms(b, r))
    return tuple([out.get(k, 0) for k in range(r)])


def _product_outside(table, lattice, indices):
    """The first b e_i outside the lattice, i in indices, b a basis row, on
    a ring's or a module's table, as an int tuple; None when there is none."""
    for i in indices:
        for b in lattice.terms:
            prod = _row_times(table, b, ((i, 1),))
            if lattice.solve_map(dict(prod)) is None:
                return tuple([prod.get(k, 0) for k in range(lattice.width)])
    return None


def _aug_generator(ring, k) -> tuple:
    """The term row of e_k - aug[k] e_0, k >= 1, an element of the
    augmentation ideal."""
    d = ring.aug[k]
    return ((0, -d), (k, 1)) if d else ((k, 1),)


def augmentation_ideal(ring) -> IdealLattice:
    """Kernel of the augmentation, as a canonical ideal lattice; since
    aug[0] = 1, the e_k - aug[k] e_0 for k >= 1 are a basis of it."""
    rows = [dict(_aug_generator(ring, k)) for k in range(1, ring.rank)]
    return IdealLattice(ring, terms=hermite_terms(rows), _trusted=True)  # a ring map's kernel


def _level_units(ring, rows) -> int:
    """Units to form the next power from these Hermite term rows: 16 per
    entry of the rank * |S| products, at the ring's full rank, times the
    words of the pivot product."""
    pivots = 1
    for row in rows:
        pivots *= row[0][1]
    return 16 * len(rows) * len(ring.generators) * ring.rank * (1 + pivots.bit_length() // 64)


def ideal_powers(ring, last=None):
    """Yield I^0, I^1, I^2, ... for the augmentation ideal I, in one pass.

    Power k+1 is the span of b g_s for b a Hermite row of power k and
    g_s = e_s - aug[s] e_0, s in ring.generators.  The g_s generate I as
    an ideal, since m e_s - aug(m e_s) = m g_s + aug[s] (m - aug(m)) and
    left-normed products of the e_s span Z^r; I^k is an ideal, so
    I^k I = sum over s of I^k R g_s = sum over s of I^k g_s.  The Hermite
    rows are canonical, so they match products with all of I's rows.
    Rows stay sparse throughout: each product visits only b's nonzeros
    (_row_times), and intmat.hermite_terms reduces the products.

    Each level is charged, with those before it, before it is formed.
    Given the last power the caller will read, a walk whose remaining
    levels cannot fit is refused once that is certain: once a power has
    the rank of the one before, the two span the same space over Q, so
    every later power keeps that rank and those pivot columns, and the
    pivot product, the index of a power's projection onto them, never
    falls: no later level costs less.  The first zero power is yielded
    for every later one, with nothing more formed or charged.
    """
    yield IdealLattice.full(ring)
    yield from _augmentation_powers(ring, last)


def _augmentation_powers(ring, last):
    """The walk of ideal_powers from I^1 on: I^1, I^2, ..."""
    power = augmentation_ideal(ring)
    rows, spent, level = power.terms, 0, 1
    gens = [_aug_generator(ring, s) for s in ring.generators]
    what = f"the ideal power walk of a rank-{ring.rank} ring"
    while rows:
        yield power
        spent += _level_units(ring, rows)
        charge(spent, what)
        next_rows = hermite_terms([_row_times(ring.table, b, g) for b in rows for g in gens])
        level += 1
        if last is not None and len(next_rows) == len(rows):
            charge(spent + (last - level) * _level_units(ring, next_rows), what)
        rows = next_rows
        power = IdealLattice(ring, terms=rows, _trusted=True)  # I^level, in Hermite form
    while True:
        yield power


def ideal_power(ring, n: int) -> IdealLattice:
    """n-th power of the augmentation ideal: level n of
    ideal_powers(ring, last=n), or its first zero level when that comes
    first.  So a large n on a nilpotent ideal returns at once, and one on
    any other ideal is refused once the ranks of the powers stop falling
    and the remaining levels cannot fit the budget.
    """
    if n < 0:
        raise InputError("ideal power needs n >= 0")
    if n == 0:
        return IdealLattice.full(ring)
    levels = enumerate(_augmentation_powers(ring, n), 1)
    return next(power for k, power in levels if k == n or not power.terms)


def lattice_quotient(ring, outer: IdealLattice, inner: IdealLattice):
    """Isomorphism class of outer/inner; inner must sit inside outer."""
    if outer.ring != ring or inner.ring != ring:
        raise InputError("quotient lattices must live over the given ring")
    return quotient(outer.lattice, inner.terms)


def regular_class_check(ring: BasedRing):
    """The regular class sum(dims_i * e_i) and whether the ideal kills it.

    Annihilation means b * reg = 0 for every augmentation-ideal basis
    vector b; for character rings this is the classical behaviour of the
    regular representation class.
    """
    reg = _terms(ring.aug, ring.rank)
    ok = not any(_row_times(ring.table, b, reg) for b in augmentation_ideal(ring).terms)
    return RingElement(ring.aug), ok


def regular_dimension(ring: BasedRing) -> int:
    return sum(d * d for d in ring.aug)


def lambda_expansion(p: int) -> tuple:
    """Coefficients (n_1, ..., n_(p-1)) with lam^p = sum n_j lam^j.

    Worked in Z[chi]/(chi^p - 1), p >= 3 odd, with lam = 1 - chi.
    The powers lam, ..., lam^(p-1) are a basis of the augmentation
    ideal, so the expansion exists and is unique.  It is binomial:
    (1 - lam)^p = chi^p = 1 gives sum over j of (-1)^j C(p, j) lam^j = 0,
    so for odd p, n_j = (-1)^j C(p, j), and n_1 = -p.  The sum is checked
    against lam^p, formed with no ring built, though the p^3 units of
    cyclic_ring(p) are charged.  Even p has no such expansion and is rejected.
    """
    if p % 2 == 0:
        raise UnsupportedError(
            f"lambda expansion is only provided for odd p (got {p}): for even p "
            "the powers of lam do not span the augmentation ideal the same way"
        )
    if p < 3:
        raise InputError("lambda expansion needs p >= 3")
    charge(p**3, f"a rank-{p} ring")
    powers = [{0: 1, 1: -1}]  # lam^k as {exponent of chi: coefficient}
    for _ in range(p - 1):  # lam^(k+1) = lam^k - chi lam^k
        chi_lam = {(i + 1) % p: c for i, c in powers[-1].items()}
        powers.append(term_product(((0, 1), (1, -1)), (powers[-1], chi_lam)))
    n = tuple([(-1) ** j * comb(p, j) for j in range(1, p)])
    if term_product(enumerate(n), powers) != powers[p - 1]:
        raise EquikError(f"the binomial expansion does not reproduce lam^{p}")
    return n


def circle_ideal_image(n: int, j: int) -> IdealLattice:
    """Image of the j-th ideal power in the order-n circle truncation.

    Spanned by lam^j, ..., lam^(n-1); the zero lattice once j >= n.
    """
    ring = circle_truncation(n)
    if j < 0:
        raise InputError("ideal power needs j >= 0")
    return IdealLattice(ring, terms=_unit_terms(range(j, n)), _trusted=True)  # lam^j R


# ---------------------------------------------------------------------------
# Ring tags and the fusion-table file format
# ---------------------------------------------------------------------------


def tag_order(tag: str, prefix: str) -> int:
    """The order n of a tag written prefix + n.

    n >= 1 is canonical decimal text (errors.decimal), so each ring has
    one tag; anything else is an InputError.
    """
    try:
        n = decimal(tag[len(prefix) :])
        if n >= 1:
            return n
    except ValueError:
        pass
    raise InputError(
        f"malformed tag {tag!r}: expected {prefix}<n>, n >= 1 in decimal "
        "with no sign or leading zero"
    )


def ring_from_tag(tag: str):
    """Resolve a built-in ring name: z<n> (see tag_order), or such names
    joined by x for their product, as in z2xz3.  A part that does not
    start with z is unsupported."""
    out = None
    for part in tag.split("x"):
        if not part.startswith("z"):
            raise UnsupportedError(f"unknown ring tag {tag!r}")
        ring = cyclic_ring(tag_order(part, "z"))
        out = ring if out is None else ring_product(out, ring)
    return out


def fusion_ring_from_json_dict(obj) -> BasedRing:
    """Build a fusion ring from the fusion-table object; axioms are re-checked.

    Shape: {"labels": [...], "dims": ["1", ...], "fusion": r x r lists of
    [k, multiplicity] pairs with decimal-string integers}.  Pairs that
    name the same k add up.
    """
    if not isinstance(obj, dict):
        raise InputError("fusion table must be a mapping")
    for field in ("labels", "dims", "fusion"):
        if not isinstance(obj.get(field), list):
            raise InputError(f"fusion table field {field!r} must be a list")
    labels = tuple(str(s) for s in obj["labels"])
    r = len(labels)
    dims = tuple(as_int(d) for d in obj["dims"])
    if len(dims) != r:
        raise InputError("dims length must match labels")
    raw = obj["fusion"]
    if len(raw) != r:
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
    return fusion_ring_from_json_dict(read_json(path, "fusion"))
