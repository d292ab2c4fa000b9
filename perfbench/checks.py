"""Independent checks of ``linalg snf`` and ``linalg hnf --json`` output.

The arithmetic here shares no code with ``equik``: it parses the JSON
payload and verifies the defining identities with plain lists.  Each
function returns a list of problems, empty when the output is sound.
"""

from __future__ import annotations

import json


def _matrix(obj) -> list:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = [int(e) for e in obj["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match the shape")
    return [entries[i * cols : (i + 1) * cols] for i in range(rows)]


def _mul(a, b, inner) -> list:
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def det(m) -> int:
    """Fraction-free (Bareiss) determinant of a square matrix."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _square_unimodular(name, m, size) -> list:
    if len(m) != size or any(len(r) != size for r in m):
        return [f"{name} is not {size}x{size}"]
    return [] if abs(det(m)) == 1 else [f"{name} is not unimodular"]


def check_snf(a, stdout: str) -> list:
    """U.A.V = D, U and V unimodular, D diagonal with a divisibility chain."""
    payload = json.loads(stdout)
    u, d, v = (_matrix(payload[k]) for k in ("U", "D", "V"))
    rows, cols = len(a), len(a[0])
    problems = _square_unimodular("U", u, rows) + _square_unimodular("V", v, cols)
    if problems:
        return problems
    if _mul(_mul(u, a, rows), v, cols) != d:
        problems.append("U.A.V != D")
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        problems.append("D is not diagonal")
    if any(x < 0 for x in diag):
        problems.append("D has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x):
            problems.append(f"divisibility chain broken at {x}, {y}")
    if [str(x) for x in diag if x] != payload["invariant_factors"]:
        problems.append("invariant factors disagree with D")
    return problems


def check_hnf(a, stdout: str) -> list:
    """H = T.A with T unimodular and H in row Hermite form.

    Row Hermite form: pivots positive and strictly moving right, entries
    above a pivot in [0, pivot), zero rows at the bottom.
    """
    payload = json.loads(stdout)
    h, t = _matrix(payload["H"]), _matrix(payload["transform"])
    rows = len(a)
    problems = _square_unimodular("transform", t, rows)
    if problems:
        return problems
    if _mul(t, a, rows) != h:
        problems.append("H != T.A")
    last = -1
    rank = 0
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            if any(any(r) for r in h[i:]):
                problems.append("a zero row sits above a nonzero row")
            break
        p = nz[0]
        rank += 1
        if p <= last:
            problems.append(f"pivot of row {i} does not move right")
        if row[p] <= 0:
            problems.append(f"pivot of row {i} is not positive")
        if any(not 0 <= h[k][p] < row[p] for k in range(i)):
            problems.append(f"entries above the pivot of row {i} are not reduced")
        last = p
    if str(rank) != payload["rank"]:
        problems.append("rank disagrees with H")
    return problems
