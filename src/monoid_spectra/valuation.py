"""Valuation overmonoids of the quotient groupoid, the overmonoid and
valuation carriers with their subbasis topologies, the domination map onto
prime ideals and its laws, and a localization-based Pruefer test.

The domination functions take the enumerated primes, the Zar carrier (its
members are overmonoids), the domination map as the list f of prime indices,
f[i] = delta(carrier[i]), and the carrier's space, all built once by the
caller.  Each reads its points once per call, as local data dropped on
return: ``delta`` asks V and H about each window point once and each prime
about each point of H's window at most once, and ``delta_laws`` asks each
prime about each point of H's window once and H about each h x once."""

from __future__ import annotations

from math import gcd

from .errors import UnsupportedRealization
from .fintop import FiniteSpace, bipartite_dot, hasse_edges, subbasis_space
from .intgeom import dot
from .monoid import INF, Monoid, Overmonoid, localize
from .numsgp import oversemigroups
from .report import INFO, Check


# largest absolute coordinate of the weights in the affine Zar carrier
ZAR_HEIGHT = 2


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


class ValuationDescriptor(Overmonoid):
    """Finite description of a valuation submonoid of G, as a rule-backed
    overmonoid.

    Over Z (numerical carriers) the only options are N and Z themselves.  Over
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

    def sort_key(self):
        if self.tag == "trivial":
            return (2,)
        if self.tag in ("N", "Z"):
            return (0, self.tag)
        w = self.weight
        return (1, max(abs(w[0]), abs(w[1])), w, self.tiebreak)

    def __repr__(self):
        if self.tag == "weight":
            return f"V(w={self.weight},t={self.tiebreak:+d})"
        return f"V({self.tag})"


def is_valuation(S: Overmonoid, bound: int = 6) -> Check:
    """x in S or x^{-1} in S for every nonzero window element."""
    ctx = S.context
    return Check.scan(f"valuation[{S.name}]",
                      (None if S.contains(x) or S.contains(ctx.inv(x))
                       else {"x": repr(x)} for x in ctx.nonzero_window(bound)),
                      bound=bound)


def _primitive_weights():
    out = []
    for a in range(-ZAR_HEIGHT, ZAR_HEIGHT + 1):
        for b in range(-ZAR_HEIGHT, ZAR_HEIGHT + 1):
            if (a, b) != (0, 0) and gcd(abs(a), abs(b)) == 1:
                out.append((a, b))
    return out


def enumerate_overmonoids(H: Monoid):
    """R(G|H) for numerical H: every oversemigroup of H (finitely many, one
    per closed gap subset) plus Z itself, all with the absorbing zero."""
    if H.kind != "numerical":
        raise UnsupportedRealization(
            "overmonoid enumeration is finite only for numerical monoids")
    ctx = H.context
    out = []
    for sgp in oversemigroups(H.sgp):
        gens = sgp.minimal_generators()
        name = "<" + ",".join(map(str, gens)) + ">"
        out.append(Overmonoid(ctx, gens=gens, rule=sgp.contains, name=name))
    out.append(Overmonoid(ctx, gens=(1, -1), name="Z"))
    return out


def enumerate_zar(H: Monoid, bound: int = 6):
    """Zar(G|H): the valuation descriptors (overmonoids) that contain H.

    Numerical: N when H has no negative elements, and Z (the trivial
    valuation of the carrier).  Affine d = 2: all primitive weights up to
    ZAR_HEIGHT, all tiebreaks, filtered by generator containment and
    deduplicated by their window profile, plus the trivial valuation.
    Irrational-ray valuations lie outside this carrier."""
    ctx = H.context
    if H.kind == "numerical":
        return [ValuationDescriptor(ctx, "N"), ValuationDescriptor(ctx, "Z")]
    if H.kind != "affine" or H.dim != 2:
        raise UnsupportedRealization(
            "valuation enumeration supports numerical and affine d=2 monoids")
    window = ctx.window(bound)
    out = []
    profiles = set()
    cands = [ValuationDescriptor(ctx, "weight", weight=w, tiebreak=t)
             for w in _primitive_weights() for t in (-1, 0, 1)]
    cands.sort(key=lambda v: v.sort_key())
    cands.append(ValuationDescriptor(ctx, "trivial"))
    for v in cands:
        if not all(v.contains(g) for g in H.generators):
            continue
        prof = frozenset(i for i, g in enumerate(window) if v.contains(g))
        if prof in profiles:
            continue
        profiles.add(prof)
        out.append(v)
    return out


# -- subbases and carriers ----------------------------------------------------

def overmonoid_space(carrier, ctx, bound: int = 6) -> FiniteSpace:
    """R(G|H) (or Zar) with the subbasis U(x) over the window; for valuation
    carriers U(x) and B(x) = Zar(G|H[x]) agree pointwise."""
    return subbasis_space([S.name or repr(S) for S in carrier], carrier,
                          ctx.window(bound), lambda S, x: S.contains(x))


def _subbasis_at(space, ctx, bound):
    """x -> U(x), read from a space that ``overmonoid_space`` built on
    ctx.window(bound); that window is closed under inversion."""
    window = ctx.window(bound)
    if len(window) != len(space.subbasis):
        raise ValueError("the space was built on another window")
    return dict(zip(window, space.subbasis))


def b_complement_law(space, ctx, bound: int = 6) -> Check:
    """On a valuation carrier, Zar minus B(x) sits inside B(x^{-1}); U(x) and
    U(x^{-1}) are read from the carrier's space."""
    U = _subbasis_at(space, ctx, bound)

    def outcome(x):
        missed = set(range(space.n)) - U[x] - U[ctx.inv(x)]
        return ({"x": repr(x), "V": space.labels[next(iter(missed))]}
                if missed else None)

    return Check.scan("B-complement", map(outcome, ctx.nonzero_window(bound)),
                      bound=bound)


# -- the domination map --------------------------------------------------------

def read_window(V: Overmonoid, bound: int):
    """V's members on the nonzero window and its units there.  V is asked
    about each point once; the window is closed under inversion, so the
    units are the members whose inverse is a member."""
    ctx = V.context
    members = frozenset(filter(V.has, ctx.nonzero_window(bound)))
    return members, frozenset(g for g in members if ctx.inv(g) in members)


def is_local_window(ctx, members, units) -> bool:
    """Nonunits form an ideal on the window, products checked when they stay
    inside it: no nonunit n and member h with n h a unit u, that is, no
    nonunit n and unit u with u n^{-1} a member.  `members` and `units` are
    a ``read_window`` of an overmonoid on `ctx`."""
    return not any(ctx.op(u, ctx.inv(n)) in members
                   for n in members - units for u in units)


def maximal_ideal(V: Overmonoid, bound: int = 6):
    """m_V = V minus its units, as an exact predicate; V must be local on the
    window.  V's members on the window are answered from its window read,
    other points ask V."""
    ctx = V.context
    members, units = read_window(V, bound)
    if not is_local_window(ctx, members, units):
        raise ValueError(f"{V.name or V!r} is not local on the window")

    def member(g):
        if g is INF or g == ctx.zero:
            return True
        if ctx.contains(g) and g in members:
            return g not in units
        return V.contains(g) and not V.contains(ctx.inv(g))

    return member


def delta(H: Monoid, V: Overmonoid, primes, bound: int = 6) -> int:
    """The domination map V -> m_V intersect H, as the index of the one
    enumerated prime that agrees with it pointwise on the window.  V and H
    are asked about each window point once (V holds H, so m_V answers H's
    points from V's window read), and each prime about each point of H's
    window at most once: a prime stops at its first disagreement."""
    m = maximal_ideal(V, bound)
    image = [(g, m(g)) for g in H.context.window(bound) if H.has(g)]
    matches = [j for j, P in enumerate(primes)
               if all(P.contains(g) == inside for g, inside in image)]
    if len(matches) != 1:
        raise ValueError(
            f"domination image of {V.name} matched {len(matches)} primes")
    return matches[0]


def delta_laws(H: Monoid, primes, f, zar_space, pruefer, bound: int = 6):
    """For every nonzero window element x, the image law
    delta(B(x)) = spec minus V((H : x)) over the enumerated carriers; B(x)
    is read from the Zar carrier's space.  `pruefer` is the caller's s-Pruefer
    verdict, under which the image law is claimed as an equality.  Each
    prime's part of H's window is read once, each h x in H once per x, and
    the primes outside V((H : x)) are those whose part misses a point of
    (H : x) there.

    The preimage law delta^{-1}(D(x)) = B(x^{-1}) needs no check: ``delta``
    accepts V only when m_V and the image agree on the window's part of H,
    and an x of H lies in V, so x is outside m_V exactly when x^{-1} is in
    V."""
    ctx = H.context
    U = _subbasis_at(zar_space, ctx, bound)
    h_window = [g for g in ctx.nonzero_window(bound) if H.has(g)]
    inside = [frozenset(filter(P.contains, h_window)) for P in primes]

    # image law: the containment "spec minus V((H:x)) inside delta(B(x))" is
    # unconditional; the reverse containment (so the equality) holds when the
    # localizations are valuation monoids, and can fail otherwise
    lower_witness = None
    eq_witness = None
    count = 0
    for x in ctx.nonzero_window(bound):
        count += 1
        frac = frozenset(h for h in h_window if H.has(ctx.op(h, x)))
        left = frozenset(f[i] for i in U[x])
        right = frozenset(j for j, part in enumerate(inside)
                          if not frac <= part)
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


def is_s_pruefer(H: Monoid, primes, bound: int = 6) -> Check:
    """Every localization at a prime s-ideal is a valuation monoid
    (windowed)."""

    def outcome(P):
        c = is_valuation(localize(H, P), bound)
        return None if c.ok else {**c.witness, "P": P.name}

    return Check.scan("s-pruefer", map(outcome, primes), bound=bound)


def delta_dot(f, zar_space, spec_space) -> str:
    """Bipartite DOT drawing of the domination correspondence with
    specialization edges inside each side."""
    return bipartite_dot(zar_space.labels, spec_space.labels, enumerate(f),
                         left_edges=hasse_edges(zar_space),
                         right_edges=hasse_edges(spec_space), name="delta")
