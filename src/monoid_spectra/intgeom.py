"""Exact integer geometry: lattices via Hermite normal form, rational cones in
the plane, and exact membership in finitely generated submonoids of Z^d.

Everything here is pure integer arithmetic; no floating point is involved, so
every membership answer is exact.  Cone/monoid machinery is implemented for
dimension <= 2, which covers every supported affine realization.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import UnsupportedRealization
from .numsgp import cached_semigroup


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


def hnf_rows(vectors) -> list[list[int]]:
    """Row-echelon basis (Hermite-style) of the lattice spanned by `vectors`.

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
    return basis


def lattice_contains(basis: list[list[int]], v) -> bool:
    """Exact membership of integer vector v in the lattice with echelon basis."""
    vec = list(v)
    n = len(vec)
    for row in basis:
        j = next(k for k in range(n) if row[k] != 0)
        if vec[j] % row[j] != 0:
            return False
        q = vec[j] // row[j]
        for k in range(j, n):
            vec[k] -= q * row[k]
    return all(c == 0 for c in vec)


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


def _positive_functional_2d(gens) -> tuple[int, int]:
    """Integer w with dot(w, g) > 0 for every g in a pointed generating set."""
    # single-ray case
    first = gens[0]
    if all(cross(first, g) == 0 and dot(first, g) > 0 for g in gens):
        return first
    # angular extremes: all other generators on one fixed side
    u_r = next(g for g in gens if all(cross(g, h) >= 0 for h in gens))
    u_l = next(g for g in gens if all(cross(g, h) <= 0 for h in gens))
    rot = lambda u: (-u[1], u[0])
    wr, wl = rot(u_r), rot(u_l)
    return (wr[0] - wl[0], wr[1] - wl[1])


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


# Most generating sets whose analysis `submonoid_2d` keeps, and most points
# one generating set's reachability memo holds; a full memo is cleared.
MAX_SUBMONOIDS = 1 << 10
MAX_REACH_MEMO = 1 << 16


@lru_cache(maxsize=MAX_SUBMONOIDS)
def submonoid_2d(gens: tuple):
    """Exact membership predicate of the submonoid of Z^2 generated by `gens`.

    The analysis runs once per generating set: invertible generators (those
    whose negative lies in the rational cone) are split off as a sublattice,
    the remaining generators span a pointed cone in the quotient, and a
    bounded search decides the rest.  Rank 2 leaves a finite quotient, whose
    reachable cosets are listed once.  Rank 1 leaves one line, and only the
    search over the pointed generators runs per query.  Rank 0 is a search
    down a positive functional w, with one reachability memo shared by all
    queries: each step strictly decreases w.v, so an entry is exact whoever
    wrote it."""
    glist = [g for g in gens if g != (0, 0)]
    if not glist:
        return lambda x: x == (0, 0)
    invertible = [g for g in glist if cone_contains_2d(glist, neg(g))]
    inv_set = set(invertible)
    pointed = [g for g in glist if g not in inv_set]
    basis = hnf_rows(invertible)

    if len(basis) == 2:
        # finite quotient: BFS over cosets reachable from 0 by pointed gens
        r0, r1 = basis
        a, c = r0[0], r1[1]

        def reduce(v):
            v0, v1 = v
            q = v0 // a
            return (v0 - q * a, (v1 - q * r0[1]) % c)

        start = reduce((0, 0))
        frontier = [start]
        seen = {start}
        while frontier:
            cur = frontier.pop()
            for g in pointed:
                nxt = reduce((cur[0] + g[0], cur[1] + g[1]))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return lambda x: reduce(x) in seen

    if len(basis) == 1:
        row = tuple(basis[0])
        j = 0 if row[0] != 0 else 1
        fvals = [cross(row, g) for g in pointed]
        # pointedness of the quotient cone guarantees a common nonzero sign
        sign = 1 if all(fv > 0 for fv in fvals) else -1
        fvals = [sign * fv for fv in fvals]

        def member(x):
            # enumerate coefficient vectors with weighted sum == sign * f(x)
            def search(i, rem, acc):
                if i == len(pointed):
                    v = (x[0] - acc[0], x[1] - acc[1])
                    return (rem == 0 and cross(row, v) == 0
                            and v[j] % row[j] == 0)
                fv, g = fvals[i], pointed[i]
                k = 0
                while k * fv <= rem:
                    if search(i + 1, rem - k * fv,
                              (acc[0] + k * g[0], acc[1] + k * g[1])):
                        return True
                    k += 1
                return False

            target = sign * cross(row, x)
            return target >= 0 and search(0, target, (0, 0))

        return member

    # rank 0: the whole generating set spans a pointed cone
    w = _positive_functional_2d(pointed)
    memo: dict[tuple, bool] = {}

    def reach(v) -> bool:
        """Is v a sum of pointed generators?  The caller knows w.v >= 0."""
        if v == (0, 0):
            return True
        hit = memo.get(v)
        if hit is None:
            hit = False
            if dot(w, v) > 0:
                for g in pointed:
                    u = (v[0] - g[0], v[1] - g[1])
                    if dot(w, u) >= 0 and reach(u):
                        hit = True
                        break
            if len(memo) >= MAX_REACH_MEMO:
                memo.clear()
            memo[v] = hit
        return hit

    return lambda x: dot(w, x) >= 0 and reach(x)


@lru_cache(maxsize=1 << 16)
def monoid_contains(gens: tuple, x: tuple) -> bool:
    """Exact membership of x in the submonoid of Z^d generated by `gens`.

    Complete for d <= 2.  This is the cached entry point: a miss asks the
    predicate `submonoid_1d` or `submonoid_2d` built for `gens`, and the
    analysis of `gens` is done once, by `submonoid_2d`'s cache, not once
    per point."""
    dim = len(x)
    if dim == 1:
        return submonoid_1d([g[0] for g in gens])(x[0])
    if dim != 2:
        raise UnsupportedRealization(
            "exact affine monoid membership is implemented for dimension <= 2"
        )
    return submonoid_2d(gens)(x)


def cone_shape_2d(gens) -> str:
    """Classify the rational cone of `gens`: zero|ray|sector|halfplane|plane."""
    glist = [tuple(g) for g in gens if tuple(g) != (0, 0)]
    if not glist:
        return "zero"
    first = glist[0]
    if all(cross(first, g) == 0 for g in glist):
        if all(dot(first, g) > 0 for g in glist):
            return "ray"
        return "line"
    has_line = any(cone_contains_2d(glist, neg(g)) for g in glist)
    if not has_line:
        return "sector"
    # halfplane iff some direction's negative is excluded
    probe = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
    if all(cone_contains_2d(glist, p) for p in probe):
        return "plane"
    return "halfplane"


def faces_2d(gens) -> list[frozenset]:
    """Faces of the cone of `gens`, each given as the frozenset of generators
    lying on the face.  The cone itself is the face containing all generators.
    """
    glist = [tuple(g) for g in gens if tuple(g) != (0, 0)]
    shape = cone_shape_2d(glist)
    allg = frozenset(glist)
    if shape == "zero":
        return [allg]
    if shape == "ray":
        return [allg, frozenset()]
    if shape == "line":
        return [allg]
    if shape == "plane":
        return [allg]
    if shape == "halfplane":
        # unique proper face: the boundary line (generators with negatives in cone)
        boundary = frozenset(g for g in glist if cone_contains_2d(glist, neg(g)))
        return [allg, boundary]
    # sector: cone, two extreme rays, origin
    u_r = next(g for g in glist if all(cross(g, h) >= 0 for h in glist))
    u_l = next(g for g in glist if all(cross(g, h) <= 0 for h in glist))
    ray_r = frozenset(g for g in glist if cross(u_r, g) == 0)
    ray_l = frozenset(g for g in glist if cross(u_l, g) == 0)
    faces = [allg, ray_r, ray_l, frozenset()]
    if ray_r == ray_l:  # degenerate (should not happen for a true sector)
        faces = [allg, ray_r, frozenset()]
    return faces
