"""Exact integer geometry: lattices via Hermite normal form, rational cones in
the plane, and exact membership in finitely generated submonoids of Z^d.

Everything here is pure integer arithmetic; no floating point is involved, so
every membership answer is exact.  Cone/monoid machinery is implemented for
dimension <= 2, which covers every supported affine realization.  A planar
cone is analysed in one place, the cached `_cone_2d`: the invertible/pointed
split of its generators and, when it is pointed, its extreme rays, once per
generating set; `faces_2d` reads the faces off that analysis.  A submonoid
H of Z^2 has one membership structure, H = A + M (`_apery`): M, the points
of a lattice inside at most two walls, and A, H's finite Apery set over M,
one list per coset.  `submonoid_2d` asks it of a point, and `submonoid_span`
of a box, as one int, M's comb moved by each point of A.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from math import gcd

from .errors import UnsupportedRealization
from .layout import Box
from .numsgp import MAX_REACH, cached_semigroup


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with a*x + b*y == g == gcd(a, b)."""
    x0, y0, r0 = 1, 0, a
    x1, y1, r1 = 0, 1, b
    while r1:
        q = r0 // r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
        r0, r1 = r1, r0 - q * r1
    if r0 < 0:
        x0, y0, r0 = -x0, -y0, -r0
    return x0, y0, r0


def hnf_rows(vectors) -> list[tuple[int, list[int]]]:
    """Row-echelon basis (Hermite-style) of the lattice spanned by `vectors`,
    as (pivot column, row) pairs: each row's pivot is found here, once per
    basis, and not on every membership question.

    Rows have strictly increasing pivot columns with positive pivots.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        vec = list(v)
        n = len(vec)
        j = 0
        while j < n:
            if vec[j] == 0:
                j += 1
                continue
            if j in pivots:
                p = pivots.index(j)
                row = basis[p]
                a, b = row[j], vec[j]
                if b % a == 0:
                    q = b // a
                    for k in range(j, n):
                        vec[k] -= q * row[k]
                else:
                    x, y, g = xgcd(a, b)
                    ag, bg = a // g, b // g
                    new_row = [x * row[k] + y * vec[k] for k in range(n)]
                    new_vec = [ag * vec[k] - bg * row[k] for k in range(n)]
                    basis[p] = new_row
                    vec = new_vec
                j += 1
            else:
                if vec[j] < 0:
                    vec = [-c for c in vec]
                where = sum(1 for p in pivots if p < j)
                basis.insert(where, vec)
                pivots.insert(where, j)
                break
        # vec reduced to zero: spanned already
    return list(zip(pivots, basis))


def _residue(basis, v) -> tuple:
    """The representative of v modulo the lattice with echelon basis whose
    entry at each pivot column lies in [0, pivot): equal for two vectors
    exactly when they differ by a lattice vector, and zero on the lattice."""
    vec = list(v)
    n = len(vec)
    for j, row in basis:
        q = vec[j] // row[j]
        for k in range(j, n):
            vec[k] -= q * row[k]
    return tuple(vec)


def lattice_contains(basis, v) -> bool:
    """Exact membership of integer vector v in the lattice with the echelon
    basis ``hnf_rows`` gives."""
    return not any(_residue(basis, v))


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def neg(v):
    return tuple(-c for c in v)


def cone_contains_2d(gens, x) -> bool:
    """Exact membership of x in the rational cone generated by `gens` (in Z^2).

    By Caratheodory for planar cones, a member is a nonnegative combination of
    at most two generators, so pair checking is complete.
    """
    x = tuple(x)
    if x == (0, 0):
        return True
    gens = [tuple(g) for g in gens if tuple(g) != (0, 0)]
    for u in gens:
        if cross(u, x) == 0 and dot(u, x) > 0:
            return True
    for i, u in enumerate(gens):
        for v in gens[i + 1 :]:
            d = cross(u, v)
            if d == 0:
                continue
            a_num, b_num = cross(x, v), cross(u, x)
            if d < 0:
                a_num, b_num = -a_num, -b_num
            if a_num >= 0 and b_num >= 0:
                return True
    return False


# Most generating sets whose cone analysis, and whose Apery set, are kept.
MAX_SUBMONOIDS = 1 << 10


@lru_cache(maxsize=MAX_SUBMONOIDS)
def _cone_2d(gens: tuple):
    """The one analysis of a planar cone: its nonzero generators split into
    the invertible ones, whose negatives lie in the cone and which span its
    largest linear subspace, and the pointed rest.  With no invertible
    generator it also returns the extreme rays (u_r, u_l), the first
    generators with every generator on their left, and on their right."""
    glist = [tuple(g) for g in gens if any(g)]
    invertible = [g for g in glist if cone_contains_2d(glist, neg(g))]
    pointed = [g for g in glist if g not in invertible]
    rays = None
    if pointed and not invertible:
        rays = tuple(next(g for g in pointed
                          if all(side * cross(g, h) >= 0 for h in pointed))
                     for side in (1, -1))
    return invertible, pointed, rays


def submonoid_1d(gens):
    """Exact membership predicate of the submonoid of Z generated by `gens`.

    The reduction runs once per generating set: with g their gcd, mixed signs
    reach all of gZ, and one sign reaches +-g times a numerical semigroup."""
    gens = [g for g in gens if g != 0]
    if not gens:
        return lambda x: x == 0
    g_all = 0
    for g in gens:
        g_all = gcd(g_all, g)
    if min(gens) < 0 < max(gens):
        return lambda x: x % g_all == 0
    sign = 1 if gens[0] > 0 else -1
    sgp = cached_semigroup(tuple(sorted({abs(g) // g_all for g in gens})))
    return lambda x: x % g_all == 0 and sgp.contains(sign * x // g_all)


def _inside(walls, x, a) -> bool:
    """Whether x - a lies on the kept side of every wall."""
    return all(h[0] * (x[0] - a[0]) + h[1] * (x[1] - a[1]) >= 0
               for h in walls)


@lru_cache(maxsize=MAX_SUBMONOIDS)
def _apery(gens: tuple):
    """The decomposition H = A + M of the submonoid H of Z^2 generated by
    `gens`, built once per generating set, as (the echelon basis of the
    lattice Lambda, the walls, A as a list per coset of Lambda).

    M is the points of Lambda inside every wall (a functional h, kept where
    h.v >= 0), and Lambda is H's group of units L, which ``_cone_2d``'s
    invertible generators span, with H's edge generators:
    - L of rank 1, or a ray: one wall w, perpendicular to L or along the
      ray, and one edge, a pointed generator of least w.v;
    - otherwise: the extreme rays u_r, u_l, and the walls cross(u_r, v) >= 0
      and cross(v, u_l) >= 0;
    - no pointed generator: no wall, and M = L = H.
    So M lies in H and has H's cone, and A, H's Apery set over M, is
    finite: the points a of H, up to L, with a - m outside H for every m
    of M off L.  It is found by a walk from 0 by the other pointed
    generators in increasing order of the walls' sum, which every point of
    M off L raises, so a point is kept unless a kept point of its coset
    plus M holds it; only kept points are walked on, as a partial sum of a
    point of A is in A.  The walk is refused past MAX_REACH kept points,
    the numerical reach guard."""
    invertible, pointed, rays = _cone_2d(gens)
    units = hnf_rows(invertible)
    if not pointed:
        return units, [], {(0, 0): [(0, 0)]}
    if units:
        r0, r1 = row = units[0][1]
        walls = [(-r1, r0) if cross(row, pointed[0]) > 0 else (r1, -r0)]
    elif cross(*rays) == 0:
        walls = [rays[0]]
    else:
        (a0, a1), (b0, b1) = rays
        walls = [(-a1, a0), (b1, -b0)]
    w = tuple(map(sum, zip(*walls)))
    edges = (list(rays) if len(walls) == 2
             else [min(pointed, key=lambda p: w[0] * p[0] + w[1] * p[1])])
    basis = hnf_rows(invertible + edges)
    others = [p for p in pointed if p not in edges]
    apery, seen, todo, kept = {}, {(0, 0)}, [(0, (0, 0))], 0
    while todo:
        _, v = heappop(todo)
        coset = apery.setdefault(_residue(basis, v), [])
        if any(_inside(walls, v, a) for a in coset):
            continue
        coset.append(v)
        kept += 1
        if kept > MAX_REACH:
            raise UnsupportedRealization(
                f"the submonoid generated by {list(gens)} has more than "
                f"{MAX_REACH} Apery points over its edge generators")
        for g in others:
            u = _residue(units, (v[0] + g[0], v[1] + g[1]))
            if u not in seen:
                seen.add(u)
                heappush(todo, (w[0] * u[0] + w[1] * u[1], u))
    return basis, walls, apery


def submonoid_2d(gens: tuple, x) -> bool:
    """Exact membership of x in the submonoid of Z^2 generated by `gens`:
    some a of ``_apery``'s A in x's coset has x - a inside every wall."""
    basis, walls, apery = _apery(gens)
    return any(_inside(walls, x, a)
               for a in apery.get(_residue(basis, x), ()))


# -- members on a box, as one int ----------------------------------------------
#
# A box is anything with x0, y0, rows, cols and stride: cell (x0 + i, y0 + j)
# at bit i * stride + j, for 0 <= i < rows and 0 <= j < cols.

def _repunit(rows: int, stride: int) -> int:
    """Bit 0 of each of `rows` rows `stride` bits apart."""
    return ((1 << rows * stride) - 1) // ((1 << stride) - 1)


def lattice_span(basis, box, walls=()) -> int:
    """The cells of `box` on the lattice with echelon basis `basis` (of
    ``hnf_rows``, in Z^2) and on the kept side of every wall h
    (h.v >= 0), as a comb.  The lattice meets row x when x = q p0 for its
    first row (p0, b) (only x = 0 without one), in the cells
    y = q b (mod period), one shifted periodic row, when it holds
    (0, period), else in the one cell y = q b; the walls cut the row to
    one run."""
    rows, cols, stride = box.rows, box.cols, box.stride
    if not walls and len(basis) == 2 and basis[0][1][0] == basis[1][1][1] == 1:
        return ((1 << cols) - 1) * _repunit(rows, stride)  # all of Z^2
    p0, b = next((row for j, row in basis if j == 0), (0, 0))
    period = next((row[1] for j, row in basis if j == 1), 0)
    out = 0
    for i in range(rows):
        x = box.x0 + i
        if x % p0 if p0 else x:  # the lattice misses row x
            continue
        lo, hi = 0, cols - 1  # the row's run, in columns
        for h0, h1 in walls:
            if h1 > 0:
                lo = max(lo, -(h0 * x // h1) - box.y0)
            elif h1 < 0:
                hi = min(hi, h0 * x // -h1 - box.y0)
            elif h0 * x < 0:
                hi = -1
        first = (x // p0 * b if p0 else 0) - box.y0
        if period:
            first = lo + (first - lo) % period
            n = (hi - first) // period + 1
            if n > 0:
                out |= _repunit(n, period) << first + i * stride
        elif lo <= first <= hi:
            out |= 1 << first + i * stride
    return out


def submonoid_span(gens: tuple, box) -> int:
    """The members on `box` of the submonoid H of Z^2 generated by `gens`,
    as one int, asking no point: with ``_apery``'s H = A + M, the OR of M
    moved by each a of A under the box, one with every wall kept at some
    cell of the box moved back by a.  M is read once, by
    ``lattice_span``, on the region that holds the box moved back by each
    such a, and each move is one shift of it.  A region row is the box's
    width plus the moves' spread in y, so a cell moved off its row lands
    outside the box's columns and needs no guard bit; the box's rows are
    then cut out of the result."""
    basis, walls, apery = _apery(gens)
    x1, y1 = box.x0 + box.rows - 1, box.y0 + box.cols - 1
    tops = [(h0, h1, max(h0 * box.x0, h0 * x1) + max(h1 * box.y0, h1 * y1))
            for h0, h1 in walls]
    under = [a for coset in apery.values() for a in coset
             if all(h0 * a[0] + h1 * a[1] <= top for h0, h1, top in tops)]
    if not under:
        return 0
    (xa, xb), (ya, yb) = ((min(c), max(c)) for c in zip(*under))
    cols = box.cols + yb - ya
    region = Box(None, box.x0 - xb, box.y0 - yb, box.rows + xb - xa, cols,
                 cols)
    bits, moved = lattice_span(basis, region, walls), 0
    for a in under:
        moved |= bits >> (xb - a[0]) * cols + yb - a[1]
    run = (1 << box.cols) - 1
    return sum((moved >> i * cols & run) << i * box.stride
               for i in range(box.rows))


@lru_cache(maxsize=1 << 16)
def monoid_contains(gens: tuple, x: tuple) -> bool:
    """Exact membership of x in the submonoid of Z^d generated by `gens`.

    For d = 1 or 2, the dimensions a lattice carrier admits.  This is the
    cached entry point: a miss asks `submonoid_1d`'s predicate or
    `submonoid_2d`, whose Apery set is built once per generating set, by
    `_apery`'s cache, not once per point."""
    dim = len(x)
    if dim == 1:
        return submonoid_1d([g[0] for g in gens])(x[0])
    return submonoid_2d(gens, x)


def faces_2d(gens) -> list[frozenset]:
    """Faces of the cone of `gens`, each given as the frozenset of generators
    lying on the face, the cone itself first, read from ``_cone_2d``.  A
    cone with no pointed generator is a linear subspace, its only face; a
    half plane has one proper face, the line of its invertible generators;
    a pointed cone has its extreme rays and the origin, a ray just the
    origin."""
    invertible, pointed, rays = _cone_2d(tuple(map(tuple, gens)))
    allg = frozenset(invertible + pointed)
    if not pointed:
        return [allg]
    if invertible:
        return [allg, frozenset(invertible)]
    faces = [allg] + [frozenset(g for g in pointed if cross(u, g) == 0)
                      for u in rays] + [frozenset()]
    return list(dict.fromkeys(faces))
