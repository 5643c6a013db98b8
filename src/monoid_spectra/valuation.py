"""Valuation overmonoids of the quotient groupoid, the overmonoid and
valuation carriers with their window spaces, the domination map onto
prime ideals and its laws, and a localization-based Pruefer test.

The window functions take a ``WindowRead``, the nonzero window of H's
groupoid at a bound read as int bitmasks (a ``layout.Read``), which a
suite builds once and drops on return; the domination functions also take
the enumerated primes, the Zar carrier (its members are overmonoids), the
domination map as the list f of prime indices, f[i] = delta(carrier[i]),
and the carrier's space, all built once by the caller.  The one
descriptor is V(w, t) on the plane; V(N), V(Z) and the trivial valuation
are overmonoids of their generators, which the carrier builds (``zar``).
Each overmonoid is read once as a mask, asking no point: V(w, t) is one
run of each box row plus at most one kernel cell, and a generator-backed
one is filled from its generators (``intgeom.submonoid_span``).  No prime is
asked either: its part of H's window part is its mask, the OR of H's
translates by its generators (``idealsys.RIdeal.span_mask``), and m_V
intersect H is H's part AND V's mask minus its inversion."""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .fintop import FiniteSpace, bipartite_dot, hasse_edges
from .layout import Read
from .monoid import Monoid, Overmonoid, localize
from .report import INFO, Check


# largest absolute coordinate of the weights in the affine Zar carrier
ZAR_HEIGHT = 2


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def holds(w, t, g) -> bool:
    """Is the nonzero point g of the plane in V(w, t)?  w.g > 0, or
    w.g = 0 and g on the half of the kernel line that t keeps, where
    w-perp = (-w_1, w_0) has sign t or 0 at g, or anywhere at t = 0."""
    s = w[0] * g[0] + w[1] * g[1]
    if s:
        return s > 0
    return not t or _sign(w[0] * g[1] - w[1] * g[0]) in (0, t)


# The (w, t) of the Zar carrier's candidates, in its order: w primitive
# with coordinates up to ZAR_HEIGHT, by height, then w, then t
CANDIDATES = sorted(
    (((a, b), t) for a in range(-ZAR_HEIGHT, ZAR_HEIGHT + 1)
     for b in range(-ZAR_HEIGHT, ZAR_HEIGHT + 1) if gcd(a, b) == 1
     for t in (-1, 0, 1)),
    key=lambda c: (max(map(abs, c[0])), c))


class ValuationDescriptor(Overmonoid):
    """V(w, t), a valuation submonoid of a rank-2 lattice G, as a
    rule-backed overmonoid: a primitive integer weight w together with a
    tiebreak t in {-1, 0, +1}.  The monoid is the open half plane of w, plus
    the kernel line when t = 0, or its w-perp nonnegative (t = +1) or
    nonpositive (t = -1) half when t refines lexicographically."""

    def __init__(self, context, weight, tiebreak):
        self.weight = w = tuple(weight)
        self.tiebreak = tiebreak
        if len(w) != 2 or w == (0, 0):
            raise ValueError("a descriptor needs a nonzero 2d weight")
        if gcd(abs(w[0]), abs(w[1])) != 1:
            raise ValueError("weight must be primitive")
        if tiebreak not in (-1, 0, 1):
            raise ValueError("tiebreak must be -1, 0 or +1")
        super().__init__(context, rule=self._rule, name=repr(self))

    def _rule(self, g) -> bool:
        """Membership of a nonzero element of G."""
        return holds(self.weight, self.tiebreak, g)

    def _span(self, box):
        """The members on `box` asking no cell: one run of each row,
        w.g > 0, with at most one kernel cell w.g = 0, which t decides; on
        the row x = 0 of w = (+-1, 0), the kernel line itself, t keeps the
        half y w_0 t >= 0, or all of it at t = 0; cut to the carrier's
        cells (``comb``), which a sublattice thins."""
        (w0, w1), t = self.weight, self.tiebreak
        y0, cols = box.y0, box.cols

        def run(lo, hi):
            """The columns of y in [lo, hi)."""
            lo, hi = max(lo - y0, 0), min(hi - y0, cols)
            return (1 << hi) - (1 << lo) if lo < hi else 0

        end = y0 + cols
        bits = 0
        for i in range(box.rows):
            x = box.x0 + i
            c = w0 * x  # w.g = c + w1 y
            if c and w1 == 0:  # a row off the kernel line x = 0
                row = run(y0, end) if c > 0 else 0
            elif w1 == 0:
                row = run(y0, end) if t == 0 else run(0, end) if (
                    w0 * t > 0) else run(y0, 1)
            else:
                row = run(-c // w1 + 1, end) if w1 > 0 else run(
                    y0, -(c // w1))
                y = -c // w1
                if c % w1 == 0 and (t == 0 or _sign(w0 * y - w1 * x) in
                                    (0, t)):
                    row |= run(y, y + 1)
            bits |= row << i * box.stride
        return bits & self.context.comb(box)

    def __repr__(self):
        return f"V(w={self.weight},t={self.tiebreak:+d})"


class WindowRead:
    """H's nonzero window at `bound` for one suite call: ``window``, a
    ``layout.Read`` of its points with those points as moves, so (H : x)
    is H moved by x, built on first use (corollaries on a numerical H
    builds none), and the primes' parts of H's window part, their masks on
    it.  The window is closed under inversion."""

    def __init__(self, H: Monoid, bound: int):
        self.H, self.bound = H, bound

    @cached_property
    def window(self):
        points = self.H.context.nonzero_window(self.bound)
        return Read(self.H.context, points, moves=points)

    def parts(self, primes) -> list:
        """Each prime's part of H's window part, its mask on the window,
        read once and asking no prime: P is (P's generators)H."""
        return list(map(self.window.mask, primes))


def is_valuation(S: Overmonoid, read: WindowRead):
    """The first nonzero window point x with neither x nor x^{-1} in S, or
    None: the first point outside S's mask and its inversion."""
    w = read.window
    m = w.mask(S)
    missed = w.full & ~(m | w.inverted(m))
    return w.point((missed & -missed).bit_length() - 1) if missed else None


def enumerate_overmonoids(H: Monoid):
    """The overmonoid carrier of H's realization (``overmonoids``): R(G|H)
    for numerical H, else H and its localizations at its primes."""
    return H.context.overmonoids(H)


def enumerate_zar(read: WindowRead):
    """Zar(G|H) for the read's H: the valuation descriptors (overmonoids)
    that contain H, as its carrier gives them (``zar``)."""
    return read.H.context.zar(read)


# -- carriers and their spaces ------------------------------------------------

def overmonoid_space(carrier, read: WindowRead) -> FiniteSpace:
    """R(G|H) (or Zar) with the subbasis U(x), x over the nonzero window:
    each member's profile is its mask on the window.  Every member holds
    INF, so its open, all of the carrier, changes no order and is left out.
    For valuation carriers U(x) and B(x) = Zar(G|H[x]) agree pointwise."""
    return FiniteSpace([S.name or repr(S) for S in carrier],
                       list(map(read.window.mask, carrier)))


# -- the domination map --------------------------------------------------------

def delta(V: Overmonoid, primes, read: WindowRead) -> int:
    """The domination map V -> m_V intersect H, as the index of the one
    enumerated prime that agrees with it on the window's part of H.  On
    the window m_V is V's mask minus its units, the members whose inverse
    is a member, so its part of H is one AND of masks the read holds; each
    prime's part of H is the read's, taken once for every V.  No locality
    check is needed: the nonunits of a monoid form an ideal, since n h = u
    with h in V puts n^{-1} = h u^{-1} in V."""
    w = read.window
    m = w.mask(V)
    image = w.mask(read.H) & m & ~w.inverted(m)
    matches = [j for j, part in enumerate(read.parts(primes))
               if part == image]
    if len(matches) != 1:
        raise ValueError(
            f"domination image of {V.name} matched {len(matches)} primes")
    return matches[0]


def delta_laws(primes, f, carrier, pruefer, read: WindowRead):
    """For every nonzero window element x, the image law
    delta(B(x)) = spec minus V((H : x)) over the enumerated carriers;
    delta(B(x)) is the primes P with x in the OR of the masks of the V with
    delta(V) = P.  `pruefer` is the caller's s-Pruefer verdict, under which
    the image law is claimed as an equality.  (H : x) on H's window part is
    H moved by x on the read, masked to that part, and the primes outside
    V((H : x)) are those whose part misses a point of it.

    The preimage law delta^{-1}(D(x)) = B(x^{-1}) needs no check: ``delta``
    accepts V only when m_V and the image agree on the window's part of H,
    and an x of H lies in V, so x is outside m_V exactly when x^{-1} is in
    V."""
    w, H, bound = read.window, read.H, read.bound
    images = [0] * len(primes)
    for m, j in zip(map(w.mask, carrier), f):
        images[j] |= m
    parts = read.parts(primes)
    h = w.mask(H)

    # image law: the containment "spec minus V((H:x)) inside delta(B(x))" is
    # unconditional; the reverse containment (so the equality) holds when the
    # localizations are valuation monoids, and can fail otherwise
    lower_witness = None
    eq_witness = None
    count = 0
    for x, b in zip(w.points, w.bits):
        count += 1
        frac = w.moved(H, x) & h
        left = frozenset(j for j, m in enumerate(images) if m >> b & 1)
        right = frozenset(j for j, part in enumerate(parts) if frac & ~part)
        if lower_witness is None and not right <= left:
            lower_witness = {"x": repr(x), "missing": sorted(right - left)}
        if eq_witness is None and left != right:
            eq_witness = {"x": repr(x), "image": sorted(left),
                          "complement": sorted(right)}
        if lower_witness is not None and eq_witness is not None:
            break
    checks = [Check("delta-image-law-lower", lower_witness is None,
                    witness=lower_witness, n=count, bound=bound)]
    if pruefer:
        checks.append(Check("delta-image-law", eq_witness is None,
                            witness=eq_witness, n=count, bound=bound))
    else:
        checks.append(Check("delta-image-law", INFO, n=count, bound=bound,
                            detail="equality holds on Pruefer instances; here "
                            + ("it also holds pointwise" if eq_witness is None
                               else f"it fails at {eq_witness['x']}")))
    return checks


def is_s_pruefer(primes, read: WindowRead) -> Check:
    """Every localization of H at a prime s-ideal is a valuation monoid
    (windowed); each is read once."""

    def outcome(P):
        x = is_valuation(localize(read.H, P), read)
        return None if x is None else {"x": repr(x), "P": P.name}

    return Check.scan("s-pruefer", map(outcome, primes), bound=read.bound)


def delta_dot(f, zar_space, spec_space) -> str:
    """Bipartite DOT drawing of the domination correspondence with
    specialization edges inside each side."""
    return bipartite_dot(zar_space.labels, spec_space.labels, enumerate(f),
                         left_edges=hasse_edges(zar_space),
                         right_edges=hasse_edges(spec_space), name="delta")
