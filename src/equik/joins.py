"""Joins of finite sets: complexes, homology, and K-theory rank formulas.

The k-fold join of an N-point set is the complete k-partite simplicial
complex on k blocks of N vertices.  Its K-theory ranks follow a closed
one-step recursion; the simplicial homology computed here serves as an
independent oracle for those numbers.  Boundaries are kept as sparse
rows.  Coreduction pairs along +-1 incidences remove cells first, and
homology comes from the rank and torsion (intmat.smith_invariants) of
each boundary restricted to the critical cells left.  The comparison map
of the join step is read the same way, as the transposed boundary of a
complete bipartite graph.  Results are errors.TupleRecords; JoinComplex
(an errors.Record) is checked and charged.
"""

from __future__ import annotations

from .abgroups import FgAbelianGroup, TRIVIAL_GROUP
from .errors import (
    RANK_BITS_CAP, CapExceededError, EquikError, InputError, Record, TupleRecord, charge
)
from .intmat import SparseMatrix, smith_invariants


def join_step_formula(l: int, r: int, n: int):
    """One join step: (K0, K1) ranks (l, r) joined with an n-point set.

    Returns (r*(n-1) + 1, (l-1)*(n-1)).  The K0 rank must be at least 1;
    a space with no unit class has no join step here.
    """
    if l < 1:
        raise InputError("join step needs K0 rank >= 1")
    if r < 0:
        raise InputError("join step needs K1 rank >= 0")
    if n < 1:
        raise InputError("join step needs a nonempty finite set")
    return r * (n - 1) + 1, (l - 1) * (n - 1)


def join_k_theory_formula(n: int, k: int):
    """(K0, K1) ranks of the k-fold self-join of an n-point set.

    Closed form: for odd k the ranks are ((n-1)^k + 1, 0); for even k
    they are (1, (n-1)^k).  Equivalently, iterate join_step_formula
    starting from (n, 0).  Since (n-1)^k < 2^(k * bits(n-1)), n and k
    with k * bits(n-1) > RANK_BITS_CAP are refused before the power is
    formed; n <= 2 gives 0^k or 1^k and passes at every k.
    """
    if n < 1:
        raise InputError("set size must be >= 1")
    if k < 1:
        raise InputError("join copies must be >= 1")
    if n > 2 and k * (n - 1).bit_length() > RANK_BITS_CAP:
        raise CapExceededError(
            f"output bound exceeded: (n-1)^k may pass {RANK_BITS_CAP} bits"
        )
    step = (n - 1) ** k
    if k % 2:
        return step + 1, 0
    return 1, step


class KTheoryRanks(TupleRecord):
    __slots__, _fields = (), ("k0_rank", "k1_rank")


class JoinComplex(Record):
    """Complete k-partite complex: k = parts blocks of n = part_size vertices."""

    __slots__ = _fields = ("parts", "part_size")

    def __init__(self, parts: int, part_size: int):
        if parts < 1 or part_size < 1:
            raise InputError("join complex needs n >= 1 points per copy and k >= 1 copies")
        # 400 units per boundary nonzero, augmentation included: k n (n+1)^(k-1)
        # of them.  Past k = 65 the power is cut at 64, already over the budget.
        k, n = parts, part_size
        charge(400 * k * n * (n + 1) ** min(k - 1, 64), f"the {k}-fold join of {n} points")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "part_size", part_size)

    @property
    def vertex_count(self) -> int:
        return self.parts * self.part_size

    @property
    def dimension(self) -> int:
        return self.parts - 1

    def face_counts(self) -> tuple:
        from math import comb

        return tuple(
            comb(self.parts, d + 1) * self.part_size ** (d + 1)
            for d in range(self.parts)
        )


def build_join_complex(n: int, k: int) -> JoinComplex:
    return JoinComplex(parts=k, part_size=n)


class ChainComplex(TupleRecord):
    """Sparse boundaries of a complex, rows = d-faces, cols = (d-1)-faces.

    boundaries[d-1] is the degree-d boundary; chains are row vectors and
    the boundary acts on the right, so del(del(x)) = x . B_d . B_(d-1).
    """

    __slots__, _fields = (), ("face_counts", "boundaries")


def _face_masks(jc: JoinComplex) -> list:
    """masks[d + 1] lists the d-faces as int masks in descending order, which
    is the lexicographic order of their sorted vertex tuples; masks[0] is [0].

    Vertex v = p * part_size + i (block p, point i) is bit top - v, with
    top = vertex_count - 1; a face picks at most one vertex per block.  Blocks
    are added last first, and the faces given a vertex of block p go first.
    """
    k, n, top = jc.parts, jc.part_size, jc.vertex_count - 1
    masks = [[0]] + [[] for _ in range(k)]
    for p in reversed(range(k)):
        bits = [1 << (top - p * n - i) for i in range(n)]
        for d in range(k - p, 0, -1):
            masks[d] = [b | f for b in bits for f in masks[d - 1]] + masks[d]
    return masks


def boundary_matrices(jc: JoinComplex) -> ChainComplex:
    """Row i of the degree-d map drops each vertex of d-face i, lowest bit
    (last vertex) first, with signs (-1)^d, (-1)^(d-1), ..."""
    masks = _face_masks(jc)
    mats = []
    for d in range(1, jc.parts):
        index = {face: i for i, face in enumerate(masks[d])}
        rows = []
        for face in masks[d + 1]:
            row, rest, sign = {}, face, -1 if d % 2 else 1
            while rest:
                low = rest & -rest
                row[index[face ^ low]] = sign
                rest ^= low
                sign = -sign
            rows.append(row)
        mats.append(SparseMatrix(len(rows), len(index), tuple(rows)))
    return ChainComplex(jc.face_counts(), tuple(mats))


def check_boundaries(maps) -> None:
    """Raise EquikError unless maps[d] followed by maps[d-1] is zero.

    Each map is a sparse boundary whose rows are the faces of one degree
    and whose columns are the faces one degree lower.
    """
    for d in range(1, len(maps)):
        lower = maps[d - 1].data
        for i, row in enumerate(maps[d].data):
            total = {}
            for a, c in row.items():
                for j, e in lower[a].items():
                    total[j] = total.get(j, 0) + c * e
            if any(total.values()):
                raise EquikError(
                    f"boundary of a boundary is not zero: row {i} of map {d}"
                )


def coreduce(maps) -> tuple:
    """The maps restricted to the cells no coreduction pair removes.

    maps[d] has the d-cells as rows and the (d-1)-cells as columns, and
    maps[d] followed by maps[d-1] is zero; maps[0] is the augmentation,
    whose one column is the empty cell.  A pair is a cell a whose only
    live face (one not yet removed) is b, with coefficient +-1; a and b
    leave, and the cells facing either lose a live face, so pairs are
    found from a queue (Mrozek and Batko 2009).  The maps come back as SparseMatrix
    values in the same order, rows and columns renumbered in order over
    the cells left, so the columns of map d+1 are the rows of map d.
    The input rows are not changed.

    Why the maps are only restricted: for a d-cell a and a face b with
    <del a, b> = s a unit, the complex without a and b keeps integer
    homology when each other d-cell c is sent to
    del c - (<del c, b> / s) del a and each (d+1)-cell loses its a term
    (Kaczynski, Mrozek and Slusarek 1998).  In a pair del a = s b, so
    del c - (<del c, b> / s) s b is del c with its b term dropped: every
    map is restricted to the cells left, which is again a complex, and
    the next pair is taken in it.
    """
    faces = [()] + [m.data for m in maps]  # faces[t]: rows of the cells of degree t - 1
    cofaces = []  # cofaces[t][j]: the cells of degree t with face j of degree t - 1
    for m in maps:
        index = [[] for _ in range(m.cols)]
        for i, row in enumerate(m.data):
            for j in row:
                index[j].append(i)
        cofaces.append(index)
    cofaces.append([()] * maps[-1].rows)  # the top cells face nothing
    # live[t][i]: the live faces of cell i of degree t - 1; negative once it is removed
    live = [[0] * maps[0].cols] + [[len(row) for row in m.data] for m in maps] + [[]]
    queue = [(t, i) for t, counts in enumerate(live) for i, c in enumerate(counts) if c == 1]
    for t, i in queue:  # grows while it is read: first in, first out
        counts = live[t]
        if counts[i] != 1:
            continue
        row, below = faces[t][i], live[t - 1]
        for j in row:
            if below[j] >= 0:
                break
        if row[j] != 1 and row[j] != -1:
            continue  # a non-unit face stays for the Smith elimination
        counts[i] = below[j] = -1
        for c in cofaces[t - 1][j]:
            counts[c] -= 1
            if counts[c] == 1:
                queue.append((t, c))
        above = live[t + 1]
        for c in cofaces[t][i]:
            above[c] -= 1
            if above[c] == 1:
                queue.append((t + 1, c))
    kept = [[i for i, c in enumerate(counts) if c >= 0] for counts in live[:-1]]
    out = []
    for t in range(1, len(kept)):
        new = {j: n for n, j in enumerate(kept[t - 1])}
        out.append(SparseMatrix(len(kept[t]), len(new), tuple(
            {new[j]: e for j, e in faces[t][i].items() if j in new} if live[t][i] else {}
            for i in kept[t]
        )))
    return tuple(out)


class BettiTable(TupleRecord):
    """Reduced homology groups by degree, exact including torsion."""

    __slots__, _fields = (), ("groups",)

    def group_at(self, d: int) -> FgAbelianGroup:
        if 0 <= d < len(self.groups):
            return self.groups[d]
        return TRIVIAL_GROUP


def _homology(maps) -> tuple:
    """Reduced homology groups, by degree, of the complex whose boundaries
    are maps, maps[0] the augmentation and maps[d] followed by maps[d-1]
    zero.  coreduce removes its pairs, which keeps the homology, and
    leaves n_d critical cells in degree d.  The reduced group in degree
    d is Z^(n_d - rank del_d - rank del_(d+1)) plus the torsion of
    del_(d+1), each del restricted to the critical cells; a del that
    coreduction left with no nonzero row has rank 0 and no torsion."""
    groups, rank_up, torsion = [], 0, ()
    for m in reversed(coreduce(maps)):
        rank, torsion_d = smith_invariants(m.data) if any(m.data) else (0, ())
        groups.insert(0, FgAbelianGroup(m.rows - rank - rank_up, torsion))
        rank_up, torsion = rank, torsion_d
    return tuple(groups)


def reduced_homology(jc: JoinComplex) -> BettiTable:
    """_homology of the join's boundaries, the augmentation first, once checked."""
    chain = boundary_matrices(jc)
    n_vert = chain.face_counts[0]
    maps = (SparseMatrix(n_vert, 1, ({0: 1},) * n_vert),) + chain.boundaries
    check_boundaries(maps)
    return BettiTable(_homology(maps))


class MvDeltaReport(TupleRecord):
    __slots__, _fields = (), ("delta0", "kernel_rank", "cokernel")


def mayer_vietoris_delta(l: int, n: int) -> MvDeltaReport:
    """The comparison map Z^l + Z^n -> Z^(l*n), (a, b) -> a.(1..1) - (1;..;1).b.

    Its kernel is the rank-1 diagonal (all coordinates equal) and its
    cokernel is free of rank l*n - l - n + 1.  Both are read from the
    homology of the complete bipartite graph K_(l,n): edge (i, j) has
    boundary a_i - b_j, so the graph's boundary is delta transposed,
    rank delta is l*n - rank H_1, and delta's cokernel has the torsion
    of H~_0.
    """
    if l < 1 or n < 1:
        raise InputError("comparison map needs l >= 1 and n >= 1")
    charge(250 * l * n, f"a {l + n} x {l * n} comparison map")  # 250 per entry
    maps = (
        SparseMatrix(l + n, 1, ({0: 1},) * (l + n)),
        SparseMatrix(l * n, l + n, tuple([{i: 1, l + j: -1} for i in range(l) for j in range(n)])),
    )
    check_boundaries(maps)
    h0, h1 = _homology(maps)
    rank = l * n - h1.free_rank
    rows = [{i * n + j: 1 for j in range(n)} for i in range(l)]
    rows += [{i * n + j: -1 for i in range(l)} for j in range(n)]
    delta = SparseMatrix(l + n, l * n, tuple(rows))
    return MvDeltaReport(delta, delta.rows - rank, FgAbelianGroup(delta.cols - rank, h0.torsion))


class OracleCheck(TupleRecord):
    """Formula ranks against the homology of the actual complex."""

    __slots__, _fields = (), (
        "set_size", "copies", "ranks", "betti", "even_sum", "odd_sum", "torsion_free", "consistent"
    )


def oracle_consistency(n: int, k: int) -> OracleCheck:
    """Check k0 = 1 + sum of even Betti numbers, k1 = sum of odd ones.

    Torsion anywhere in the homology would break the comparison and is
    reported as an inconsistency.  A complex over the work budget raises
    CapExceededError before any homology; callers skip the oracle then.
    """
    k0, k1 = join_k_theory_formula(n, k)
    betti = reduced_homology(build_join_complex(n, k))
    even = sum(g.free_rank for d, g in enumerate(betti.groups) if d % 2 == 0)
    odd = sum(g.free_rank for d, g in enumerate(betti.groups) if d % 2 == 1)
    torsion_free = not any(g.torsion for g in betti.groups)
    consistent = torsion_free and k0 == 1 + even and k1 == odd
    return OracleCheck(
        n, k, KTheoryRanks(k0, k1), betti, even, odd, torsion_free, consistent
    )
