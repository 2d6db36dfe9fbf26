"""Exact integer linear algebra: Hermite/Smith forms, kernels, lattices.

Everything here runs on Python integers (arbitrary precision, no floating
point anywhere).  Matrices are lists of row lists.  Three workhorses:

* dense row-style HNF/SNF with unimodular transforms, for small matrices
  and canonical lattice comparison;
* an incremental row-echelon accumulator (``Echelon``) that absorbs large
  streams of sparse ``{column: value}`` vectors, for ranks and lattices;
* a sparse elimination certificate (``sparse_span_certificate``) that
  unit-pivots its way through very sparse generator matrices and returns
  the invariant factors that resisted, proving or refuting saturation
  without a dense normal form.

Long-running entry points accept an optional ``cancel`` callable which is
polled periodically; returning True aborts with :class:`Cancelled`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

from .errors import Cancelled, LatticeError, OutsideSpanError

Matrix = list[list[int]]


def _copy(A: Sequence[Sequence[int]]) -> Matrix:
    return [[int(x) for x in row] for row in A]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i, arow in enumerate(A):
        orow = out[i]
        for t, a in enumerate(arow):
            if a:
                brow = B[t]
                for j in range(m):
                    orow[j] += a * brow[j]
    return out


def _poll(cancel):
    if cancel is not None and cancel():
        raise Cancelled("lattice computation cancelled")


def hnf(A: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
        ) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.  Returns (H, U) with H = U*A, |det U| = 1,
    pivots positive, entries above each pivot reduced into [0, pivot)."""
    H = _copy(A)
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        _poll(cancel)
        while True:
            nz = [i for i in range(r, m) if H[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            p = H[r][c]
            done = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // p
                    if q:
                        Hi, Hr = H[i], H[r]
                        H[i] = [x - q * y for x, y in zip(Hi, Hr)]
                        Ui, Ur = U[i], U[r]
                        U[i] = [x - q * y for x, y in zip(Ui, Ur)]
                    if H[i][c]:
                        done = False
            if done:
                break
        if H[r][c]:
            p = H[r][c]
            for i in range(r):
                q = H[i][c] // p
                if q:
                    Hi, Hr = H[i], H[r]
                    H[i] = [x - q * y for x, y in zip(Hi, Hr)]
                    Ui, Ur = U[i], U[r]
                    U[i] = [x - q * y for x, y in zip(Ui, Ur)]
            r += 1
    return H, U


def _row_add(M: Matrix, dst: int, src: int, q: int):
    if q:
        Md, Ms = M[dst], M[src]
        M[dst] = [x + q * y for x, y in zip(Md, Ms)]


def _col_add(M: Matrix, dst: int, src: int, q: int):
    if q:
        for row in M:
            row[dst] += q * row[src]


def _snf_clear_at(D: Matrix, U: Matrix, V: Matrix, t: int, cancel):
    """Make D[t][t] the only nonzero of row t and column t (indices >= t)."""
    m, n = len(D), len(D[0])
    while True:
        _poll(cancel)
        # bring the absolutely smallest nonzero of the block to (t, t)
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                if row[j] and (best is None or abs(row[j]) < best[0]):
                    best = (abs(row[j]), i, j)
        if best is None:
            return
        _, bi, bj = best
        if bi != t:
            D[t], D[bi] = D[bi], D[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for row in D:
                row[t], row[bj] = row[bj], row[t]
            for row in V:
                row[t], row[bj] = row[bj], row[t]
        p = D[t][t]
        dirty = False
        for i in range(t + 1, m):
            if D[i][t]:
                q = D[i][t] // p
                _row_add(D, i, t, -q)
                _row_add(U, i, t, -q)
                if D[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if D[t][j]:
                q = D[t][j] // p
                _col_add(D, j, t, -q)
                _col_add(V, j, t, -q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        if all(D[i][t] == 0 for i in range(t + 1, m)) and \
           all(D[t][j] == 0 for j in range(t + 1, n)):
            return


def snf(A: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
        ) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.  Returns (D, U, V) with D = U*A*V diagonal,
    d_i >= 0 and d_i | d_{i+1}; U, V unimodular."""
    D = _copy(A)
    m = len(D)
    n = len(D[0]) if m else 0
    U = identity(m)
    V = identity(n)
    for t in range(min(m, n)):
        _snf_clear_at(D, U, V, t, cancel)
        if D[t][t] == 0:
            break
    r = sum(1 for t in range(min(m, n)) if D[t][t])
    for t in range(r):
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            a, b = D[t][t], D[t + 1][t + 1]
            if b % a != 0:
                # fold d_{t+1} into column t and re-clear; yields gcd/lcm pair
                _col_add(D, t, t + 1, 1)
                _col_add(V, t, t + 1, 1)
                _snf_clear_at(D, U, V, t, cancel)
                if D[t][t] < 0:
                    D[t] = [-x for x in D[t]]
                    U[t] = [-x for x in U[t]]
                if D[t + 1][t + 1] < 0:
                    D[t + 1] = [-x for x in D[t + 1]]
                    U[t + 1] = [-x for x in U[t + 1]]
                changed = True
    return D, U, V


def invariant_factors(A: Sequence[Sequence[int]]) -> list[int]:
    D, _, _ = snf(A)
    return [D[t][t] for t in range(min(len(D), len(D[0]) if D else 0)) if D[t][t]]


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


# -- lattices ----------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^ambient given by linearly independent basis rows
    (kept in canonical HNF when built through :meth:`from_vectors`)."""

    ambient: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise LatticeError(f"vector length {len(v)} != ambient {ambient}")
        if not rows:
            return cls(ambient, ())
        H, _ = hnf(rows)
        basis = tuple(tuple(row) for row in H if any(row))
        return cls(ambient, basis)


def kernel_lattice(A: Sequence[Sequence[int]], cancel: Callable[[], bool] | None = None
                   ) -> LatticeBasis:
    """The saturated lattice {x in Z^n : A x = 0} for an m x n matrix A."""
    m = len(A)
    n = len(A[0]) if m else 0
    # row-HNF of [A^T | I_n]: rows whose A^T part vanished carry a kernel basis
    T = [[A[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
         for j in range(n)]
    H, _ = hnf(T, cancel=cancel)
    kernel_rows = [row[m:] for row in H if not any(row[:m])]
    return LatticeBasis.from_vectors(n, kernel_rows)


def lattice_equal(L1: LatticeBasis, L2: LatticeBasis) -> bool:
    if L1.ambient != L2.ambient:
        raise LatticeError(f"ambient dimensions differ: {L1.ambient} vs {L2.ambient}")
    c1 = LatticeBasis.from_vectors(L1.ambient, L1.vectors)
    c2 = LatticeBasis.from_vectors(L2.ambient, L2.vectors)
    return c1.vectors == c2.vectors


def spans(vectors: Iterable[Sequence[int]], L: LatticeBasis) -> bool:
    """True iff the integer span of ``vectors`` equals L.

    A vector outside the *rational* span of L raises
    :class:`OutsideSpanError`; a proper sublattice just returns False.
    """
    vecs = [list(v) for v in vectors]
    for v in vecs:
        if len(v) != L.ambient:
            raise LatticeError(f"vector length {len(v)} != ambient {L.ambient}")
    ech = Echelon(L.ambient)
    for b in L.vectors:
        ech.add(dict(enumerate(b)))
    base_rank = ech.rank
    for i, v in enumerate(vecs):
        ech.add(dict(enumerate(v)))
        if ech.rank > base_rank:
            raise OutsideSpanError(f"vector {i} lies outside the rational span of the lattice")
    return lattice_equal(LatticeBasis.from_vectors(L.ambient, vecs), L)


class Echelon:
    """Incremental integer row echelon accumulating a lattice.

    Vectors and rows are sparse ``{column: value}`` maps.  ``add`` folds a
    vector in with unimodular row operations (the pivot of a stored row may
    shrink to the gcd).
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
                    q = b // a
                    for c, x in row.items():  # v -= q*row in place; v[j] drops
                        y = v.get(c, 0) - q * x
                        if y:
                            v[c] = y
                        else:
                            del v[c]
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


def sparse_span_certificate(rows_in: Sequence[dict[int, int]],
                            cancel: Callable[[], bool] | None = None
                            ) -> tuple[int, list[int]]:
    """Eliminate sparse integer rows preferring +-1 pivots.

    Returns ``(rank, leftover)`` where ``leftover`` lists the invariant
    factors of the block that resisted unit pivoting (dense SNF on it); the
    invariant factors of the whole input are 1 for every unit pivot plus
    ``leftover``.  The row span is saturated in Z^n iff every leftover
    factor is 1.
    """
    _poll(cancel)
    rows: dict[int, dict[int, int]] = {}
    colmap: dict[int, set[int]] = {}
    for rid, r in enumerate(rows_in):
        filtered = {c: int(v) for c, v in r.items() if v}
        if filtered:
            rows[rid] = filtered
            for c in filtered:
                colmap.setdefault(c, set()).add(rid)
    version: dict[int, int] = {rid: 0 for rid in rows}
    heap = [(len(r), rid, 0) for rid, r in rows.items()]
    heapq.heapify(heap)
    pivots = 0
    steps = 0
    while heap:
        nnz, rid, ver = heapq.heappop(heap)
        if rid not in rows or version[rid] != ver:
            continue
        row = rows[rid]
        unit_cols = [c for c, v in row.items() if v in (1, -1)]
        if not unit_cols:
            continue  # parked; revisited if a later update re-pushes it
        steps += 1
        if steps % 256 == 0:
            _poll(cancel)
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
                version[other] += 1
                heapq.heappush(heap, (len(orow), other, version[other]))
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

