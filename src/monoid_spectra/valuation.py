"""Valuation overmonoids of the quotient groupoid, the overmonoid and
valuation carriers with their window spaces, the domination map onto
prime ideals and its laws, and a localization-based Pruefer test.

The window functions take a ``WindowRead``, the nonzero window of H's
groupoid at a bound read as int bitmasks, which a suite builds once and
drops on return; the domination functions also take the enumerated primes,
the Zar carrier (its members are overmonoids), the domination map as the
list f of prime indices, f[i] = delta(carrier[i]), and the carrier's space,
all built once by the caller.  Through the read each overmonoid is read
once as a mask on the window's box and H once on the wide box around it,
asking no point: a descriptor V(w, t) is one run of each box row plus at
most one kernel cell, and a generator-backed overmonoid is filled from
its generators (``intgeom.submonoid_span``).  Each prime is asked once
about each point of H's window part; everything else is read from the
masks, the domination map's m_V intersect H as H's window part AND V's
mask minus its inversion."""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import UnsupportedRealization
from .fintop import FiniteSpace, bipartite_dot, hasse_edges
from .intgeom import dot
from .monoid import Monoid, Overmonoid, localize
from .numsgp import cached_semigroup, oversemigroups
from .report import INFO, Check


# largest absolute coordinate of the weights in the affine Zar carrier
ZAR_HEIGHT = 2


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


class ValuationDescriptor(Overmonoid):
    """Finite description of a valuation submonoid of G, as a rule-backed
    overmonoid.

    Over Z (numerical carriers) the only options are N, read on an int box
    from its empty gap mask, and Z itself.  Over
    a rank-2 lattice a descriptor is a primitive integer weight w together
    with a tiebreak t in {-1, 0, +1}: the monoid is the open half plane of w,
    plus the kernel line when t = 0, or its w-perp nonnegative (t = +1) or
    nonpositive (t = -1) half when t refines lexicographically.  The trivial
    descriptor is all of G."""

    def __init__(self, context, tag, weight=None, tiebreak=None):
        self.tag = tag
        self.weight = tuple(weight) if weight is not None else None
        self.tiebreak = tiebreak
        if tag == "weight":
            w = self.weight
            if w is None or len(w) != 2 or w == (0, 0):
                raise ValueError("weight descriptors need a nonzero 2d weight")
            if gcd(abs(w[0]), abs(w[1])) != 1:
                raise ValueError("weight must be primitive")
            if tiebreak not in (-1, 0, 1):
                raise ValueError("tiebreak must be -1, 0 or +1")
        elif tag not in ("N", "Z", "trivial"):
            raise ValueError(f"unknown descriptor tag {tag!r}")
        super().__init__(context, rule=self._rule, name=repr(self))
        if tag == "N":  # the semigroup with no gap
            self.sgp = cached_semigroup((1,))

    def _rule(self, g) -> bool:
        """Membership of a nonzero element of G."""
        if self.tag in ("trivial", "Z"):
            return True
        if self.tag == "N":
            return g >= 0
        w = self.weight
        s = dot(w, g)
        if s != 0:
            return s > 0
        if self.tiebreak == 0:
            return True
        perp = (-w[1], w[0])
        return _sign(dot(perp, g)) in (0, self.tiebreak)

    def _span(self, box):
        """The members on `box` asking no cell: N from its gap mask, Z and
        the trivial descriptor are the carrier's cells, and V(w, t) is one
        run of each row, w.g > 0, with at most one kernel cell w.g = 0,
        which t decides; on the row x = 0 of w = (+-1, 0), the kernel line
        itself, t keeps the half y w_0 t >= 0, or all of it at t = 0."""
        if self.sgp is not None:
            return super()._span(box)
        cells = self.context.comb(box)
        if self.tag != "weight":
            return cells
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
        return bits & cells

    def sort_key(self):
        """The order of weight descriptors in the Zar carrier."""
        w = self.weight
        return max(abs(w[0]), abs(w[1])), w, self.tiebreak

    def __repr__(self):
        if self.tag == "weight":
            return f"V(w={self.weight},t={self.tiebreak:+d})"
        return f"V({self.tag})"


class WindowRead:
    """The nonzero window of H's groupoid at `bound`, read as int bitmasks
    for one suite call and dropped with it.  Only numerical and affine d = 2
    monoids have a Zar carrier, so only they are read; the layout is built
    on first use, so a caller that reads no window (corollaries on a
    numerical H, at any bound) builds none.

    Each window point sits at its bit of ``box``, the smallest box around
    the window, laid out with the row stride of ``wide``, the box around
    the window moved by each of its points, which is ``box`` moved back by
    each of its cells, as the window is closed under inversion; bits rise
    in window order.  An overmonoid's members there are its ``span_mask``,
    taken once per read, which asks no window point: a descriptor's row
    runs, or its generators' fills.  H is read once, on ``wide``: its
    window part is that mask moved onto the box, (H : x) there is the mask
    moved by x, and each prime is asked about each point of H's window part
    once.  A window has at most MAX_WINDOW points and ``wide`` fewer than
    four times as many cells, so no mask passes MAX_SPAN_BITS."""

    def __init__(self, H: Monoid, bound: int):
        if H.kind != "numerical" and (H.kind != "affine" or H.dim != 2):
            raise UnsupportedRealization(
                "valuation enumeration supports numerical and affine d=2 "
                "monoids")
        self.H, self.bound = H, bound
        self._masks, self._parts = {}, {}

    @cached_property
    def points(self):
        return self.H.context.nonzero_window(self.bound)

    @cached_property
    def box(self):
        box = self.H.context.box(self.points)
        return box.with_stride(box.behind(box).stride)

    @cached_property
    def wide(self):
        return self.box.behind(self.box)

    @cached_property
    def bits(self):
        return [self.box.bit(g) for g in self.points]

    @cached_property
    def full(self):
        """Every window point's bit."""
        return sum(1 << b for b in self.bits)

    def mask(self, S: Overmonoid) -> int:
        """S's members on the window, read on the first call."""
        m = self._masks.get(S)
        if m is None:
            m = self._masks[S] = S.span_mask(self.box)
        return m

    def inverted(self, m: int) -> int:
        """The image of a window mask under inversion.  A point's bit and
        its inverse's add up to a constant, that of the first and the last
        point, which are inverses, so inversion reverses the bits."""
        width = self.bits[0] + self.bits[-1] + 1
        return int(format(m, f"0{width}b")[::-1], 2)

    @cached_property
    def h_wide(self):
        """H's members on the wide box."""
        return self.H.span_mask(self.wide)

    @cached_property
    def h_part(self):
        """H's window part: its wide mask moved onto the box."""
        return self.h_wide >> self.wide.start(self.box, None) & self.full

    def parts(self, primes) -> list:
        """Each prime's part of H's window part, as a mask, read on the
        first call."""
        key = tuple(primes)
        if key not in self._parts:
            cells = [(g, b) for g, b in zip(self.points, self.bits)
                     if self.h_part >> b & 1]
            self._parts[key] = [sum(1 << b for g, b in cells
                                    if P.contains(g)) for P in primes]
        return self._parts[key]


def is_valuation(S: Overmonoid, read: WindowRead) -> Check:
    """x in S or x^{-1} in S for every nonzero window element: the first
    window point outside S's mask and its inversion is the witness."""
    m = read.mask(S)
    missed = read.full & ~(m | read.inverted(m))
    name = f"valuation[{S.name}]"
    if not missed:
        return Check(name, True, exhaustive=False, n=len(read.points),
                     bound=read.bound)
    i = (read.full & (missed & -missed) - 1).bit_count()
    return Check(name, False, witness={"x": repr(read.points[i])},
                 exhaustive=False, n=i + 1, bound=read.bound)


def _primitive_weights():
    out = []
    for a in range(-ZAR_HEIGHT, ZAR_HEIGHT + 1):
        for b in range(-ZAR_HEIGHT, ZAR_HEIGHT + 1):
            if (a, b) != (0, 0) and gcd(abs(a), abs(b)) == 1:
                out.append((a, b))
    return out


def enumerate_overmonoids(H: Monoid):
    """R(G|H) for numerical H: every oversemigroup of H (finitely many, one
    per closed gap subset), each read on an int box from its gap mask
    (``sgp``), plus Z itself, all with the absorbing zero."""
    if H.kind != "numerical":
        raise UnsupportedRealization(
            "overmonoid enumeration is finite only for numerical monoids")
    ctx = H.context
    out = []
    for sgp in oversemigroups(H.sgp):
        gens = sgp.minimal_generators()
        name = "<" + ",".join(map(str, gens)) + ">"
        S = Overmonoid(ctx, gens=gens, rule=sgp.contains, name=name)
        S.sgp = sgp
        out.append(S)
    out.append(Overmonoid(ctx, gens=(1, -1), name="Z"))
    return out


def enumerate_zar(read: WindowRead):
    """Zar(G|H) for the read's H: the valuation descriptors (overmonoids)
    that contain H.

    Numerical: N when H has no negative elements, and Z (the trivial
    valuation of the carrier).  Affine d = 2: all primitive weights up to
    ZAR_HEIGHT, all tiebreaks, filtered by generator containment and
    deduplicated by their window mask, plus the trivial valuation; every
    descriptor holds INF, so equal masks are equal window profiles.
    Irrational-ray valuations lie outside this carrier."""
    H = read.H
    ctx = H.context
    if H.kind == "numerical":
        return [ValuationDescriptor(ctx, "N"), ValuationDescriptor(ctx, "Z")]
    out = []
    seen = set()
    cands = [ValuationDescriptor(ctx, "weight", weight=w, tiebreak=t)
             for w in _primitive_weights() for t in (-1, 0, 1)]
    cands.sort(key=lambda v: v.sort_key())
    cands.append(ValuationDescriptor(ctx, "trivial"))
    for v in cands:
        # the generators were checked on the carrier when H was built
        if not all(map(v.has, H.generators)):
            continue
        m = read.mask(v)
        if m not in seen:
            seen.add(m)
            out.append(v)
    return out


# -- carriers and their spaces ------------------------------------------------

def overmonoid_space(carrier, read: WindowRead) -> FiniteSpace:
    """R(G|H) (or Zar) with the subbasis U(x), x over the nonzero window:
    each member's profile is its mask on the window.  Every member holds
    INF, so its open, all of the carrier, changes no order and is left out.
    For valuation carriers U(x) and B(x) = Zar(G|H[x]) agree pointwise."""
    return FiniteSpace([S.name or repr(S) for S in carrier],
                       [read.mask(S) & read.full for S in carrier])


def b_complement_law(carrier, read: WindowRead) -> Check:
    """On a valuation carrier, Zar minus B(x) sits inside B(x^{-1}): every
    V holds x or x^{-1}, read from V's mask and its inversion.  The window
    is closed under inversion, which reverses its order."""
    missed = [read.full & ~(m | read.inverted(m))
              for m in map(read.mask, carrier)]

    def outcome(x, b):
        k = next((k for k, m in enumerate(missed) if m >> b & 1), None)
        return None if k is None else {
            "x": repr(x), "V": carrier[k].name or repr(carrier[k])}

    return Check.scan("B-complement", map(outcome, read.points, read.bits),
                      bound=read.bound)


# -- the domination map --------------------------------------------------------

def delta(V: Overmonoid, primes, read: WindowRead) -> int:
    """The domination map V -> m_V intersect H, as the index of the one
    enumerated prime that agrees with it on the window's part of H.  On
    the window m_V is V's mask minus its units, the members whose inverse
    is a member, so its part of H is one AND of masks the read holds; each
    prime's part of H is the read's, taken once for every V.  No locality
    check is needed: the nonunits of a monoid form an ideal, since n h = u
    with h in V puts n^{-1} = h u^{-1} in V."""
    m = read.mask(V)
    image = read.h_part & m & ~read.inverted(m)
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
    H's wide mask moved by x, masked to that part, and the primes outside
    V((H : x)) are those whose part misses a point of it.

    The preimage law delta^{-1}(D(x)) = B(x^{-1}) needs no check: ``delta``
    accepts V only when m_V and the image agree on the window's part of H,
    and an x of H lies in V, so x is outside m_V exactly when x^{-1} is in
    V."""
    images = [0] * len(primes)
    for m, j in zip(map(read.mask, carrier), f):
        images[j] |= m
    parts = read.parts(primes)
    wide, box, bound = read.wide, read.box, read.bound

    # image law: the containment "spec minus V((H:x)) inside delta(B(x))" is
    # unconditional; the reverse containment (so the equality) holds when the
    # localizations are valuation monoids, and can fail otherwise
    lower_witness = None
    eq_witness = None
    count = 0
    for x, b in zip(read.points, read.bits):
        count += 1
        frac = read.h_wide >> wide.start(box, x) & read.h_part
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
                    witness=lower_witness, exhaustive=False, n=count,
                    bound=bound)]
    if pruefer:
        checks.append(Check("delta-image-law", eq_witness is None,
                            witness=eq_witness, exhaustive=False, n=count,
                            bound=bound))
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
        c = is_valuation(localize(read.H, P), read)
        return None if c.ok else {**c.witness, "P": P.name}

    return Check.scan("s-pruefer", map(outcome, primes), bound=read.bound)


def delta_dot(f, zar_space, spec_space) -> str:
    """Bipartite DOT drawing of the domination correspondence with
    specialization edges inside each side."""
    return bipartite_dot(zar_space.labels, spec_space.labels, enumerate(f),
                         left_edges=hasse_edges(zar_space),
                         right_edges=hasse_edges(spec_space), name="delta")
