"""Exact integer geometry: lattices via Hermite normal form, rational cones in
the plane, and exact membership in finitely generated submonoids of Z^d.

Everything here is pure integer arithmetic; no floating point is involved, so
every membership answer is exact.  Cone/monoid machinery is implemented for
dimension <= 2, which covers every supported affine realization.  A planar
cone is analysed in one place, `_cone_2d`: the invertible/pointed split of
its generators and, when it is pointed, its extreme rays.  `faces_2d` reads
the faces off that analysis; `submonoid_2d` its one membership walk and
`submonoid_span` the members on a box as one int, by ray fills.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

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


def _cone_2d(gens):
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


# Most generating sets whose analysis `submonoid_2d` keeps, and most points
# one generating set's reachability memo holds; a full memo is cleared.
MAX_SUBMONOIDS = 1 << 10
MAX_REACH_MEMO = 1 << 16


@lru_cache(maxsize=MAX_SUBMONOIDS)
def _analysed(gens: tuple):
    """The analysis of the submonoid H of Z^2 generated by `gens` that
    `submonoid_2d` and `submonoid_span` share, done once per generating
    set: the echelon basis of the lattice L that the invertible generators
    span, H's group of units; the pointed generators; and a functional w
    that vanishes on L and is positive on them, None with no pointed
    generator (then H = L).  w comes from the extreme rays when L = 0, and
    is perpendicular to L's row when L has rank 1."""
    invertible, pointed, rays = _cone_2d(gens)
    basis = hnf_rows(invertible)
    if not pointed:
        return basis, pointed, None
    if basis:  # rank 1: perpendicular to L's row, on the pointed side
        r0, r1 = row = basis[0][1]
        w = (-r1, r0) if cross(row, pointed[0]) > 0 else (r1, -r0)
    else:  # rank 0: between the extreme rays, or along the only ray
        u_r, u_l = rays
        w = u_r if cross(u_r, u_l) == 0 else (
            u_l[1] - u_r[1], u_r[0] - u_l[0])
    return basis, pointed, w


@lru_cache(maxsize=MAX_SUBMONOIDS)
def submonoid_2d(gens: tuple):
    """Exact membership predicate of the submonoid H of Z^2 generated by `gens`.

    A point is first reduced modulo H's group of units L to its HNF
    residue (``_analysed``).  A walk then subtracts pointed generators down
    the functional w.  When L has rank 2 the cone is the plane, every
    generator is invertible and H = L.  One reachability memo is shared by
    all queries: each step strictly decreases w.v, so an entry is exact
    whoever wrote it."""
    basis, pointed, w = _analysed(gens)
    if w is None:
        return lambda x: lattice_contains(basis, x)
    w0, w1 = w
    memo: dict[tuple, bool] = {}

    def remember(v, hit):
        if len(memo) >= MAX_REACH_MEMO:
            memo.clear()
        memo[v] = hit

    def member(x) -> bool:
        """Is x in L + N*pointed?  A depth-first walk on an explicit path of
        (point, its untried steps): a point that reaches 0 puts True on the
        whole path, and a point whose every step fails is False."""
        path, u = [], x
        while True:
            if basis:
                u = _residue(basis, u)
            if u == (0, 0):
                hit = True
            else:
                hit = memo.get(u) if w0 * u[0] + w1 * u[1] > 0 else False
            if hit:
                for v, _ in path:
                    remember(v, True)
                return True
            if hit is None:
                path.append((u, iter(pointed)))
            while path and (g := next(path[-1][1], None)) is None:
                remember(path.pop()[0], False)
            if not path:
                return False
            v = path[-1][0]
            u = (v[0] - g[0], v[1] - g[1])

    return member


# -- members on a box, as one int ----------------------------------------------
#
# A box is anything with x0, y0, rows, cols and stride: cell (x0 + i, y0 + j)
# at bit i * stride + j, for 0 <= i < rows and 0 <= j < cols.

def _repunit(rows: int, stride: int) -> int:
    """Bit 0 of each of `rows` rows `stride` bits apart."""
    return ((1 << rows * stride) - 1) // ((1 << stride) - 1)


def lattice_span(basis, box) -> int:
    """The cells of `box` on the lattice with echelon basis `basis` (of
    ``hnf_rows``, in Z^2), as a comb: on row x the lattice is the cells
    y = start (mod period), one shifted periodic row, or a single cell when
    the lattice has no vector (0, c), or none."""
    rows, cols, stride = box.rows, box.cols, box.stride
    if len(basis) == 2 and basis[0][1][0] == basis[1][1][1] == 1:
        return ((1 << cols) - 1) * _repunit(rows, stride)  # all of Z^2
    period = next((row[1] for j, row in basis if j == 1), 0)
    out = 0
    for i in range(rows):
        r0, r1 = _residue(basis, (box.x0 + i, 0))
        if r0:
            continue
        first = -r1 - box.y0
        if period:
            first %= period
            n = (cols - 1 - first) // period + 1
            if n > 0:
                out |= _repunit(n, period) << first + i * stride
        elif 0 <= first < cols:
            out |= 1 << first + i * stride
    return out


def _ray_fill(bits, step, rows, cols, full):
    """`bits` on a region of `rows` rows of `cols` cells (stride cols)
    closed under adding `step` inside the region: OR the mask moved by
    2^j * step, j = 0, 1, 2, ..., each time dropping the cells that would
    leave their row first.  A region meets each line in a run, so every
    sum that ends in it passes only through it, and the doublings reach
    it."""
    dx, dy = step
    rep = full // ((1 << cols) - 1)
    while abs(dx) < rows and abs(dy) < cols:
        keep = ((1 << min(cols, cols - dy)) - (1 << max(0, -dy))) * rep
        k = dx * cols + dy
        src = bits & keep
        bits |= (src << k if k >= 0 else src >> -k) & full
        dx, dy = 2 * dx, 2 * dy
    return bits


def submonoid_span(gens: tuple, box, cap: int):
    """The members on `box` of the submonoid H of Z^2 generated by `gens`,
    as one int, asking no point; None when the region the fills need
    passes `cap` cells.

    With ``_analysed``'s L, pointed part P and w: H = L when P is empty,
    read as L's comb.  Otherwise the fills start from the cell of 0 and
    run ``_ray_fill`` with each pointed generator, then with L's row both
    ways, on a region that holds every partial sum of every member of the
    box, and the box's rows are copied out of it.  A member m's pointed
    part, in some order of its generators, has its partial sums in
    C = cone(P) with w at most W, the box's largest w: the triangle of 0
    and each p scaled to w = W bounds them.  With no units they also lie in
    m - C, so the region is cut to the box's side of C on each axis where
    C has one sign.  With units the region holds the box's cells with
    w >= 0 too, which hold every member of the box, so each m - kl runs to
    m through it; a cell with w < 0 is no member."""
    basis, pointed, w = _analysed(gens)
    if w is None:
        return lattice_span(basis, box)
    lo = (box.x0, box.y0)
    hi = (box.x0 + box.rows - 1, box.y0 + box.cols - 1)
    top = max(w[0] * x + w[1] * y for x in (lo[0], hi[0])
              for y in (lo[1], hi[1]))
    if top < 0:
        return 0
    scaled = [(p, w[0] * p[0] + w[1] * p[1]) for p in pointed]
    a = [min(0, *(-(-top * p[k] // s) for p, s in scaled)) for k in (0, 1)]
    b = [max(0, *(top * p[k] // s for p, s in scaled)) for k in (0, 1)]
    for k in (0, 1):
        if basis:  # the box's cells with w >= 0 span [up, down] on axis k
            w_k, most = w[k], max(w[1 - k] * lo[1 - k], w[1 - k] * hi[1 - k])
            up = max(lo[k], -(most // w_k)) if w_k > 0 else lo[k]
            down = min(hi[k], most // -w_k) if w_k < 0 else hi[k]
            a[k], b[k] = min(a[k], up), max(b[k], down)
        else:
            if all(p[k] >= 0 for p in pointed):
                b[k] = min(b[k], hi[k])
            if all(p[k] <= 0 for p in pointed):
                a[k] = max(a[k], lo[k])
    if a[0] > 0 or a[1] > 0 or b[0] < 0 or b[1] < 0:
        return 0  # the region misses 0: the box misses C
    rows, cols = b[0] - a[0] + 1, b[1] - a[1] + 1
    if rows * cols > cap:
        return None
    full = (1 << rows * cols) - 1
    bits = 1 << -a[0] * cols - a[1]
    steps = list(pointed)
    if basis:
        steps += [tuple(basis[0][1]), neg(basis[0][1])]
    for g in steps:
        bits = _ray_fill(bits, g, rows, cols, full)
    # the box's rows, cut out of the region's
    xa, xb = max(a[0], lo[0]), min(b[0], hi[0])
    ya, yb = max(a[1], lo[1]), min(b[1], hi[1])
    if xa > xb or ya > yb:
        return 0
    run = (1 << yb - ya + 1) - 1
    out = 0
    for x in range(xa, xb + 1):
        out |= (bits >> (x - a[0]) * cols + ya - a[1] & run) << (
            (x - lo[0]) * box.stride + ya - lo[1])
    return out


@lru_cache(maxsize=1 << 16)
def monoid_contains(gens: tuple, x: tuple) -> bool:
    """Exact membership of x in the submonoid of Z^d generated by `gens`.

    For d = 1 or 2, the dimensions a lattice carrier admits.  This is the
    cached entry point: a miss asks the predicate `submonoid_1d` or
    `submonoid_2d` built for `gens`, and the analysis of `gens` is done
    once, by `submonoid_2d`'s cache, not once per point."""
    dim = len(x)
    if dim == 1:
        return submonoid_1d([g[0] for g in gens])(x[0])
    return submonoid_2d(gens)(x)


def faces_2d(gens) -> list[frozenset]:
    """Faces of the cone of `gens`, each given as the frozenset of generators
    lying on the face, the cone itself first.  A cone with no pointed
    generator is a linear subspace, its only face; a half plane has one
    proper face, the line of its invertible generators; a pointed cone has
    its extreme rays and the origin, a ray just the origin."""
    invertible, pointed, rays = _cone_2d(gens)
    allg = frozenset(invertible + pointed)
    if not pointed:
        return [allg]
    if invertible:
        return [allg, frozenset(invertible)]
    faces = [allg] + [frozenset(g for g in pointed if cross(u, g) == 0)
                      for u in rays] + [frozenset()]
    return list(dict.fromkeys(faces))
