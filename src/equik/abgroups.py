"""Finitely generated abelian groups in invariant-factor form.

A group is stored as (free_rank, torsion) where torsion is the chain
d1 | d2 | ... with every d >= 2.  quotient() is the one lattice modulo
a sublattice (Cohen 1993, ch. 2), for ideal quotients and module images;
cokernel() reads dense int input rows, and normalize() a Presentation.
Both records check their fields when built (errors.Record).
"""

from __future__ import annotations

from math import gcd

from .errors import RANK_BITS_CAP, CapExceededError, InputError, LatticeContainmentError, charge
from .errors import Record, decimal
from .intmat import IntMatrix, _dense, _sparse_rows, smith_invariants


class FgAbelianGroup(Record):
    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple):
        tor = tuple(torsion)
        if not all(type(x) is int for x in (free_rank, *tor)):
            raise InputError("free rank and torsion invariants must be ints")
        if free_rank < 0:
            raise InputError("free rank must be nonnegative")
        for d in tor:
            if d < 2:
                raise InputError("torsion invariants must be >= 2")
            if d.bit_length() > RANK_BITS_CAP:
                raise CapExceededError(
                    f"output bound exceeded: a torsion invariant of {d.bit_length()} "
                    f"bits, over {RANK_BITS_CAP}"
                )
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise InputError(f"torsion chain broken: {a} does not divide {b}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def render(self) -> str:
        """Canonical display form, e.g. 'Z^2 ⊕ Z_2 ⊕ Z_4'."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        if not parts:
            return "0"
        return " ⊕ ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "free_rank": str(self.free_rank),
            "torsion": [str(d) for d in self.torsion],
        }


TRIVIAL_GROUP = FgAbelianGroup(0, ())


class Presentation(Record):
    """generators free generators subject to the rows of relations."""

    __slots__ = _fields = ("generators", "relations")

    def __init__(self, generators: int, relations: IntMatrix):
        if generators < 0:
            raise InputError("generator count must be nonnegative")
        if relations.cols != generators:
            raise InputError(f"relations have {relations.cols} columns for {generators} generators")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)


def cokernel(rows, width: int) -> FgAbelianGroup:
    """Z^width modulo the span of the rows, the reader of dense input: each
    row must be width ints (not bools), else InputError.  The rank and
    torsion come from intmat.smith_invariants."""
    rank, torsion = smith_invariants(_sparse_rows(rows, width))
    return FgAbelianGroup(width - rank, torsion)


def quotient(outer, inner) -> FgAbelianGroup:
    """outer/inner for an intmat.Lattice outer and the term rows inner of a
    sublattice, from the Smith form of inner's coordinates in outer's rows;
    LatticeContainmentError names the first row outside as an int tuple."""
    rel = []
    for row in inner:
        coeffs = outer.solve_map(dict(row))
        if coeffs is None:
            raise LatticeContainmentError(_dense(row, outer.width))
        rel.append({i: c for i, c in enumerate(coeffs) if c})
    rank, torsion = smith_invariants(rel)
    return FgAbelianGroup(len(outer.terms) - rank, torsion)


def normalize(p: Presentation) -> FgAbelianGroup:
    """Canonical form of the cokernel of the relation matrix."""
    return cokernel(p.relations.to_rows(), p.generators)


def _chain(torsion_multiset) -> tuple:
    ds = [d for d in torsion_multiset if d > 1]
    return smith_invariants([{i: d} for i, d in enumerate(ds)])[1]


def direct_sum(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    return FgAbelianGroup(a.free_rank + b.free_rank, _chain(a.torsion + b.torsion))


def tensor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor product over Z, computed from the classification.

    Z^a x Z^b contributes Z^(ab); Z_d x Z^b contributes b copies of Z_d;
    Z_d x Z_e collapses to Z_gcd(d, e).
    """
    count = len(b.torsion) * a.free_rank + len(a.torsion) * (b.free_rank + len(b.torsion))
    charge(16 * count**2, f"{count} torsion summands")  # _chain compares count^2 pairs
    tors = []
    tors.extend(e for e in b.torsion for _ in range(a.free_rank))
    tors.extend(d for d in a.torsion for _ in range(b.free_rank))
    tors.extend(gcd(d, e) for d in a.torsion for e in b.torsion)
    return FgAbelianGroup(a.free_rank * b.free_rank, _chain(tors))


def tor(a: FgAbelianGroup, b: FgAbelianGroup) -> FgAbelianGroup:
    """Tor_1 over Z: free parts die, Tor(Z_d, Z_e) = Z_gcd(d, e)."""
    count = len(a.torsion) * len(b.torsion)
    charge(16 * count**2, f"{count} torsion summands")
    tors = [gcd(d, e) for d in a.torsion for e in b.torsion]
    return FgAbelianGroup(0, _chain(tors))


def parse_group_literal(text: str) -> FgAbelianGroup:
    """Parse '0', 'Z', 'Z^2', 'Z_4', or ⊕/+ -joined combinations; each
    number is canonical decimal text (errors.decimal)."""
    text = text.strip()
    if text == "0":
        return TRIVIAL_GROUP
    free = 0
    tors = []
    for raw in text.replace("⊕", "+").split("+"):
        part = raw.strip()
        if not part:
            raise InputError(f"empty summand in group literal {text!r}")
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            try:
                free += decimal(part[2:])
            except ValueError:
                raise InputError(f"bad free part {part!r}") from None
        elif part.startswith("Z_"):
            try:
                order = decimal(part[2:])
            except ValueError:
                raise InputError(f"bad torsion part {part!r}") from None
            if order < 1:
                raise InputError(f"cyclic order must be >= 1 in {part!r}")
            tors.append(order)
        else:
            raise InputError(f"cannot parse group summand {part!r}")
    return FgAbelianGroup(free, _chain(tors))
