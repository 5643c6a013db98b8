"""Valuation overmonoids of the quotient groupoid, the overmonoid and
valuation carriers with their subbasis topologies, the domination map onto
prime ideals and its laws, the domination order, and a localization-based
Pruefer test."""

from __future__ import annotations

import itertools
from math import gcd

from .errors import UnsupportedRealization
from .fintop import FiniteSpace, bipartite_dot, hasse_edges
from .idealsys import enumerate_primes, s_system, spec_subbasis
from .intgeom import dot
from .monoid import INF, Monoid, Overmonoid, fraction_ideal, localize, sort_key
from .numsgp import oversemigroups
from .report import Check


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


class ValuationDescriptor:
    """Finite description of a valuation submonoid of G.

    Over Z (numerical carriers) the only options are N and Z themselves.  Over
    a rank-2 lattice a descriptor is a primitive integer weight w together
    with a tiebreak t in {-1, 0, +1}: the monoid is the open half plane of w,
    plus the kernel line when t = 0, or its w-perp nonnegative (t = +1) or
    nonpositive (t = -1) half when t refines lexicographically.  The trivial
    descriptor is all of G."""

    def __init__(self, context, tag, weight=None, tiebreak=None):
        self.context = context
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

    def contains(self, g) -> bool:
        ctx = self.context
        return ctx.contains(g) and (g is INF or g == ctx.zero or self._rule(g))

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

    def to_overmonoid(self) -> Overmonoid:
        return Overmonoid(self.context, rule=self._rule, name=repr(self))

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
    witness = None
    count = 0
    for x in ctx.window(bound):
        if x is INF or x == ctx.zero:
            continue
        count += 1
        if not S.contains(x) and not S.contains(ctx.inv(x)):
            witness = {"x": repr(x)}
            break
    return Check(f"valuation[{S.name}]", witness is None, witness=witness,
                 exhaustive=False, n=count, bound=bound)


def _primitive_weights(height: int):
    out = []
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
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
        out.append(Overmonoid(ctx, gens=gens, name=name))
    out.append(Overmonoid(ctx, gens=(1, -1), name="Z"))
    return out


def enumerate_zar(H: Monoid, height: int = 2, bound: int = 6):
    """Zar(G|H): valuation descriptors whose monoid contains H.

    Numerical: N when H has no negative elements, and Z (the trivial
    valuation of the carrier).  Affine d = 2: all primitive weights up to the
    given height, all tiebreaks, filtered by generator containment and
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
             for w in _primitive_weights(height) for t in (-1, 0, 1)]
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

def u_subbasis(carrier, x):
    """U(x) over a list of overmonoids: indices of members containing x."""
    return frozenset(i for i, S in enumerate(carrier) if S.contains(x))


def overmonoid_space(carrier, ctx, bound: int = 6) -> FiniteSpace:
    """R(G|H) (or Zar) with the subbasis U(x) over the window; for valuation
    carriers U(x) and B(x) = Zar(G|H[x]) agree pointwise."""
    window = [g for g in ctx.window(bound)]
    labels = [S.name or repr(S) for S in carrier]
    subbasis = [u_subbasis(carrier, x) for x in window]
    names = [f"U({x})" for x in window]
    return FiniteSpace(labels, subbasis, subbasis_names=names)


def b_complement_law(carrier, ctx, bound: int = 6) -> Check:
    """On a valuation carrier, Zar minus B(x) sits inside B(x^{-1})."""
    witness = None
    count = 0
    for x in ctx.window(bound):
        if x is INF or x == ctx.zero:
            continue
        count += 1
        bx = u_subbasis(carrier, x)
        bxi = u_subbasis(carrier, ctx.inv(x))
        outside = set(range(len(carrier))) - bx
        if not outside <= bxi:
            i = next(iter(outside - bxi))
            witness = {"x": repr(x), "V": carrier[i].name}
            break
    return Check("B-complement", witness is None, witness=witness,
                 exhaustive=False, n=count, bound=bound)


# -- the domination map --------------------------------------------------------

def maximal_ideal(V: Overmonoid, bound: int = 6):
    """m_V = V minus its units, as an exact predicate; V must be local on the
    window."""
    ctx = V.context
    if not V.is_local_window(bound):
        raise ValueError(f"{V.name or V!r} is not local on the window")

    def member(g):
        if g is INF or g == ctx.zero:
            return True
        return V.contains(g) and not V.contains(ctx.inv(g))

    return member


def delta(H: Monoid, V: Overmonoid, primes=None, bound: int = 6):
    """The domination map V -> m_V intersect H, matched against the
    enumerated primes by pointwise agreement on the window."""
    if primes is None:
        primes = enumerate_primes(H, bound)
    m = maximal_ideal(V, bound)
    window = [g for g in H.context.window(bound) if H.contains(g)]
    matches = [P for P in primes
               if all((H.contains(g) and m(g)) == P.contains(g) for g in window)]
    if len(matches) != 1:
        raise ValueError(
            f"domination image of {V.name} matched {len(matches)} primes")
    return matches[0]


def delta_laws(H: Monoid, height: int = 2, bound: int = 6):
    """For every nonzero window element x: the preimage law
    delta^{-1}(D(x)) = B(x^{-1}) and the image law
    delta(B(x)) = spec minus V((H : x)), over the enumerated carriers."""
    ctx = H.context
    primes = enumerate_primes(H, bound)
    zar = [v.to_overmonoid() for v in enumerate_zar(H, height, bound)]
    images = [delta(H, V, primes, bound) for V in zar]
    idx = {id(P): i for i, P in enumerate(primes)}
    h_window = [g for g in ctx.window(bound) if H.contains(g)
                and g is not INF and g != ctx.zero]
    checks = []

    witness = None
    count = 0
    for x in h_window:
        count += 1
        pre = frozenset(i for i, V in enumerate(zar)
                        if not images[i].contains(x))
        bxi = u_subbasis(zar, ctx.inv(x))
        if pre != bxi:
            witness = {"x": repr(x), "preimage": sorted(pre),
                       "B": sorted(bxi)}
            break
    checks.append(Check("delta-preimage-law", witness is None, witness=witness,
                        exhaustive=False, n=count, bound=bound))

    # image law: the containment "spec minus V((H:x)) inside delta(B(x))" is
    # unconditional; the reverse containment (so the equality) holds when the
    # localizations are valuation monoids, and can fail otherwise
    lower_witness = None
    eq_witness = None
    count = 0
    for x in [g for g in ctx.window(bound) if g is not INF and g != ctx.zero]:
        count += 1
        frac = fraction_ideal(H, x)
        frac_window = [h for h in h_window if frac(h)]
        left = frozenset(idx[id(images[i])] for i in u_subbasis(zar, x))
        right = frozenset(j for j, P in enumerate(primes)
                          if any(not P.contains(h) for h in frac_window))
        if lower_witness is None and not right <= left:
            lower_witness = {"x": repr(x), "missing": sorted(right - left)}
        if eq_witness is None and left != right:
            eq_witness = {"x": repr(x), "image": sorted(left),
                          "complement": sorted(right)}
        if lower_witness is not None and eq_witness is not None:
            break
    checks.append(Check("delta-image-law-lower", lower_witness is None,
                        witness=lower_witness, exhaustive=False, n=count,
                        bound=bound))
    if is_s_pruefer(H, bound).ok:
        checks.append(Check("delta-image-law", eq_witness is None,
                            witness=eq_witness, exhaustive=False, n=count,
                            bound=bound))
    else:
        checks.append(Check("delta-image-law", True, exhaustive=False,
                            n=count, bound=bound,
                            detail="equality holds on Pruefer instances; here "
                            + ("it also holds pointwise" if eq_witness is None
                               else f"it fails at {eq_witness['x']}")))
    return checks


def dominates(H1: Overmonoid, H2: Overmonoid, bound: int = 6) -> bool:
    """H1 <=_d H2: inclusion plus H1 intersect m_{H2} = m_{H1}, on the
    window.  Both inputs must be local."""
    ctx = H1.context
    m1 = maximal_ideal(H1, bound)
    m2 = maximal_ideal(H2, bound)
    for g in ctx.window(bound):
        if H1.contains(g) and not H2.contains(g):
            return False
        if (H1.contains(g) and m2(g)) != m1(g):
            return False
    return True


def valuation_maximality(V: Overmonoid, candidates, bound: int = 6) -> Check:
    """No strictly larger local candidate dominates V."""
    ctx = V.context
    window = ctx.window(bound)
    witness = None
    count = 0
    for W in candidates:
        if not W.is_local_window(bound):
            continue
        larger = (all(W.contains(g) for g in window if V.contains(g))
                  and any(W.contains(g) and not V.contains(g) for g in window))
        if not larger:
            continue
        count += 1
        if dominates(V, W, bound):
            witness = {"V": V.name, "W": W.name}
            break
    return Check(f"maximal[{V.name}]", witness is None, witness=witness,
                 exhaustive=False, n=count, bound=bound)


def surjectivity_witness(H: Monoid, P, height: int = 2, bound: int = 6):
    """A descriptor V with delta(V) = P and H minus P = H intersect V-units,
    from the enumerated Zar carrier."""
    ctx = H.context
    primes = enumerate_primes(H, bound)
    h_window = [g for g in ctx.window(bound) if H.contains(g)]
    for v in enumerate_zar(H, height, bound):
        V = v.to_overmonoid()
        image = delta(H, V, primes, bound)
        if not image.ideal.equals(P.ideal):
            continue
        ok = all((not P.contains(g)) ==
                 (V.contains(g) and V.contains(ctx.inv(g)))
                 for g in h_window if g is not INF and g != ctx.zero)
        if ok:
            return v
    raise ValueError(f"no enumerated valuation dominates {P}; "
                     f"raise the enumeration height")


def is_s_pruefer(H: Monoid, bound: int = 6) -> Check:
    """Every localization at a prime s-ideal is a valuation monoid
    (windowed)."""
    primes = enumerate_primes(H, bound)
    witness = None
    count = 0
    for P in primes:
        loc = localize(H, P.ideal)
        count += 1
        c = is_valuation(loc, bound)
        if not c.ok:
            witness = dict(c.witness)
            witness["P"] = P.name
            break
    return Check("s-pruefer", witness is None, witness=witness,
                 exhaustive=False, n=count, bound=bound)


def ultrafilter_limit_valuation(carrier, principal_index: int, ctx,
                                bound: int = 10):
    """H_U = {x : B(x) in the ultrafilter}, evaluated literally over the
    carrier; at a principal ultrafilter it is the carrier member itself,
    matched back by pointwise agreement on the window."""

    def member(x):
        large = u_subbasis(carrier, x)
        return principal_index in large

    limit = Overmonoid(ctx, rule=member, name="limit")
    window = ctx.window(bound)
    matches = [i for i, S in enumerate(carrier)
               if all(S.contains(x) == limit.contains(x) for x in window)]
    if len(matches) != 1:
        raise AssertionError("limit valuation did not match a unique member")
    return carrier[matches[0]]


def delta_dot(H: Monoid, height: int = 2, bound: int = 6, name="delta") -> str:
    """Bipartite DOT drawing of the domination correspondence with
    specialization edges inside each side."""
    primes = enumerate_primes(H, bound)
    zar = [v.to_overmonoid() for v in enumerate_zar(H, height, bound)]
    images = [delta(H, V, primes, bound) for V in zar]
    idx = {id(P): i for i, P in enumerate(primes)}
    edges = [(i, idx[id(images[i])]) for i in range(len(zar))]
    zar_space = overmonoid_space(zar, H.context, bound)
    spec = spec_subbasis(H, primes, bound)
    return bipartite_dot([V.name for V in zar],
                         [P.name for P in primes],
                         edges,
                         left_edges=hasse_edges(zar_space),
                         right_edges=hasse_edges(spec),
                         name=name)
