"""Exact integer linear algebra for the certificate: ranks, indices, saturation.

Everything here runs on Python integers (arbitrary precision, no floating
point anywhere).  Lattice vectors are sparse ``{column: value}`` maps:

* ``Echelon`` folds a stream of sparse vectors into an integer row echelon
  with unimodular steps, for the monomial-matrix rank and the
  vertex-difference lattice.  No step changes the lattice, the rank or
  ``|det|`` of the rows;
* ``det`` (fraction-free Bareiss) gives the index of a full-rank lattice
  as the absolute determinant of its echelon rows;
* ``sparse_span_certificate`` first peels a very sparse generator set:
  it removes, one at a time, a row with a +-1 in a column that no other
  remaining row touches.  The peeled rows form a triangular +-1 block T,
  and in the block form [[T, X], [0, Y]] the invariant factors are 1s
  followed by those of the rest Y, and the rank is |T| + rank(Y).  A
  unit-pivot elimination then runs on Y and hands the small block that
  resisted to ``invariant_factors``, a Smith elimination that keeps only
  the diagonal.  The row span is saturated exactly when every leftover
  factor is 1.  When a factor above 1 is left, the elimination reruns on
  all rows, so that a failing report lists the same leftover factors, 1s
  included, as an elimination without the peel.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from math import gcd
from typing import Mapping, Sequence

from .errors import LatticeError

Matrix = list[list[int]]


def _copy(A: Sequence[Sequence[int]]) -> Matrix:
    return [[int(x) for x in row] for row in A]


def invariant_factors(A: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Row and column operations on a copy, each pivoting on the absolutely
    smallest nonzero entry, reach a diagonal; gcd/lcm swaps then order it
    into the divisibility chain (diag(a, b) is equivalent to
    diag(gcd, lcm)).  No unimodular transforms are kept.
    """
    D = _copy(A)
    diag: list[int] = []
    while D := [row for row in D if any(row)]:
        _, i, j = min((abs(x), i, j) for i, row in enumerate(D)
                      for j, x in enumerate(row) if x)
        D[0], D[i] = D[i], D[0]
        for row in D:
            row[0], row[j] = row[j], row[0]
        top, p = D[0], D[0][0]
        for row in D[1:]:
            q = row[0] // p
            if q:
                for c, y in enumerate(top):
                    row[c] -= q * y
        for c in range(1, len(top)):
            q = top[c] // p
            if q:
                for row in D:
                    row[c] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in D[1:]):
            continue  # a remainder below |p| is left; pivot on it next
        diag.append(abs(p))
        D = [row[1:] for row in D[1:]]
    for t in range(len(diag)):
        for u in range(t + 1, len(diag)):
            g = gcd(diag[t], diag[u])
            diag[t], diag[u] = g, diag[t] * diag[u] // g
    return diag


def det(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    M = _copy(A)
    n = len(M)
    if any(len(row) != n for row in M):
        raise LatticeError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            aik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pk - aik * Mk[j]) // prev
            Mi[k] = 0
        prev = pk
    return sign * M[n - 1][n - 1]


class Echelon:
    """Incremental integer row echelon accumulating a lattice.

    Vectors and rows are sparse ``{column: value}`` maps.  ``add`` folds a
    vector in with unimodular row operations (the pivot of a stored row may
    shrink to the gcd).  Pivots are positive and ``pivcols`` ascends; the
    rows are not reduced above their pivots.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[dict[int, int]] = []
        self.pivcols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: Mapping[int, int]) -> bool:
        """Fold in ``vec``; True iff the lattice grew or changed."""
        v = {c: int(x) for c, x in vec.items() if x}
        if v and not 0 <= min(v) <= max(v) < self.width:
            c = min(v) if min(v) < 0 else max(v)
            raise LatticeError(f"column {c} outside 0..{self.width - 1}")
        changed = False
        while v:
            j = min(v)
            k = bisect_left(self.pivcols, j)
            if k < len(self.pivcols) and self.pivcols[k] == j:
                row = self.rows[k]
                a, b = row[j], v[j]
                if b % a == 0:
                    _subtract(v, b // a, row)
                else:
                    g, x, y = _xgcd(a, b)
                    # unimodular 2x2: (row, v) <- (x*row + y*v, -(b/g)*row + (a/g)*v)
                    self.rows[k] = _combine(row, x, v, y)
                    v = _combine(v, a // g, row, -(b // g))
                    changed = True
            else:
                if v[j] < 0:
                    v = {c: -x for c, x in v.items()}
                self.rows.insert(k, v)
                self.pivcols.insert(k, j)
                return True
        return changed


def _subtract(v: dict[int, int], q: int, row: dict[int, int]) -> None:
    """v -= q*row in place, dropping the entries that become zero."""
    for c, x in row.items():
        y = v.get(c, 0) - q * x
        if y:
            v[c] = y
        else:
            del v[c]


def _combine(u: dict[int, int], s: int, w: dict[int, int], t: int) -> dict[int, int]:
    """The sparse vector s*u + t*w, without zero entries."""
    out = {c: s * x for c, x in u.items()} if s else {}
    for c, x in w.items():
        y = out.get(c, 0) + t * x
        if y:
            out[c] = y
        else:
            out.pop(c, None)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def sparse_span_certificate(rows_in: Sequence[dict[int, int]]
                            ) -> tuple[int, list[int]]:
    """The rank of sparse integer rows and the invariant factors that decide
    whether their span is saturated.

    Returns ``(rank, leftover)``: the invariant factors of the whole input
    are ``leftover`` plus 1s, so the row span is saturated in Z^n iff every
    leftover factor is 1.

    A peel runs first.  It repeatedly removes a row with a +-1 in a column
    that no other remaining row touches.  Put the peeled rows first, in
    peel order, with their peel columns first in the same order, and the
    rows read [[T, X], [0, Y]]: no row left at a peel touches its column,
    so T is triangular with a +-1 diagonal and the remaining rows Y are
    zero under it.  Column operations with T's unit diagonal clear X, so
    the invariant factors are 1s followed by those of Y, and the rank is
    |T| + rank(Y).  ``_eliminate`` (unit-pivot elimination, then Smith
    factors of the block that resisted) runs on Y only.  A column index
    stored with a zero counts as touched, which can only keep a row from
    peeling.

    If Y leaves a factor above 1, the elimination reruns on all rows and
    its result is returned: a failing report then lists the same leftover
    factors, 1s included, whether or not a peel ran.  Only sets whose span
    is not saturated pay for the second run.
    """
    touching: defaultdict[int, list[int]] = defaultdict(list)  # column -> row ids
    for rid, r in enumerate(rows_in):
        for c in r:
            touching[c].append(rid)
    count = {c: len(rids) for c, rids in touching.items()}  # remaining rows
    live = [True] * len(rows_in)
    stack = [c for c, n in count.items() if n == 1]
    while stack:
        c = stack.pop()
        if count[c] != 1:
            continue  # its row was peeled through another column
        for rid in touching[c]:
            if live[rid]:
                break
        r = rows_in[rid]
        if r[c] not in (1, -1):
            continue
        live[rid] = False
        for k in r:
            count[k] -= 1
            if count[k] == 1:
                stack.append(k)
    rest = [r for r, keep in zip(rows_in, live) if keep]
    rank, leftover = _eliminate(rest)
    if any(d != 1 for d in leftover):
        return _eliminate(rows_in)
    return len(rows_in) - len(rest) + rank, leftover


def _eliminate(rows_in: Sequence[dict[int, int]]) -> tuple[int, list[int]]:
    """Eliminate sparse integer rows preferring +-1 pivots.

    Returns ``(rank, leftover)`` where ``leftover`` lists the invariant
    factors of the block that resisted unit pivoting; the invariant factors
    of the whole input are 1 for every unit pivot plus ``leftover``.
    """
    rows: dict[int, dict[int, int]] = {}
    colmap: dict[int, set[int]] = {}
    for rid, r in enumerate(rows_in):
        filtered = {c: int(v) for c, v in r.items() if v}
        if filtered:
            rows[rid] = filtered
            for c in filtered:
                colmap.setdefault(c, set()).add(rid)
    # each update pushes (nnz, rid) anew, so an entry with another nnz is
    # stale; a repeat of the live one pops next and finds it done or parked
    heap = [(len(r), rid) for rid, r in rows.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        nnz, rid = heapq.heappop(heap)
        if rid not in rows or len(rows[rid]) != nnz:
            continue
        row = rows[rid]
        unit_cols = [c for c, v in row.items() if v in (1, -1)]
        if not unit_cols:
            continue  # parked: no +-1 until an update changes it and re-pushes it
        c = min(unit_cols, key=lambda cc: (len(colmap[cc]), cc))
        if row[c] == -1:
            row = {k: -v for k, v in row.items()}
            rows[rid] = row
        for other in list(colmap[c]):
            if other == rid:
                continue
            orow = rows[other]
            q = orow[c]
            for k, v in row.items():
                nv = orow.get(k, 0) - q * v
                if nv:
                    if k not in orow:
                        colmap.setdefault(k, set()).add(other)
                    orow[k] = nv
                else:
                    if k in orow:
                        del orow[k]
                        colmap[k].discard(other)
            if orow:
                heapq.heappush(heap, (len(orow), other))
            else:
                del rows[other]  # linearly dependent row vanished
        for k in row:
            colmap[k].discard(rid)
        del rows[rid]
        pivots += 1
    leftover: list[int] = []
    if rows:
        cols = sorted({c for r in rows.values() for c in r})
        cindex = {c: i for i, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in rows]
        for i, r in enumerate(rows.values()):
            for c, v in r.items():
                dense[i][cindex[c]] = v
        leftover = invariant_factors(dense)
    return pivots + len(leftover), leftover

