"""Ideal systems on a monoid H: the closure axioms, the s-system, finitary
closure, r-ideals, prime r-ideals and the spectrum/ideal-space subbases."""

from __future__ import annotations

from .errors import UnsupportedRealization
from .fintop import FiniteSpace, subbasis_space
from .modsys import ModuleSystem, product_closure
from .monoid import Monoid, sort_key
from .window import _Draw, _plan

# Most ideals `enumerate_ideals` lists before it gives up.
MAX_IDEALS = 10_000


class IdealSystem(ModuleSystem):
    """Closure operator on subsets of H given by an oracle on finite subsets:
    a module system on the groupoid of H that carries H.

    ``closure(X)`` takes a frozenset of elements of H and returns an exact
    membership predicate for X_r."""

    def __init__(self, name, H: Monoid, closure, members=None):
        super().__init__(name, H.context, closure, members)
        self.H = H


def s_system(H: Monoid) -> IdealSystem:
    """The s-system: X_s = XH for nonempty X and {0} for X = empty set, the
    product closure of {H}."""
    return IdealSystem("s", H, *product_closure(H.context, [H]))


class RIdeal:
    """An r-ideal given by a finite generator list; membership is exact.
    Primes from ``enumerate_primes`` carry a ``name``."""

    def __init__(self, system: IdealSystem, generators, name=""):
        self.system = system
        self.generators = tuple(sorted(set(generators), key=sort_key))
        self.name = name
        self._member = system.closure(self.generators)

    def contains(self, g) -> bool:
        return self._member(g)

    def __repr__(self):
        return f"RIdeal{self.generators}"


def is_prime(I: RIdeal, window) -> bool:
    """No a, b outside I (within the window) multiply into I.  The improper
    ideal is rejected.  Every carrier is commutative, so each unordered pair
    is taken once, and I is asked about each distinct product once."""
    H = I.system.H
    if I.contains(H.one):
        return False
    outside = [g for g in window if H.contains(g) and not I.contains(g)]
    asked = set()
    for i, a in enumerate(outside):
        for b in outside[i:]:
            ab = H.op(a, b)
            if ab not in asked:
                if I.contains(ab):
                    return False
                asked.add(ab)
    return True


def enumerate_primes(H: Monoid):
    """All prime s-ideals of H.  A prime is generated by the generators it
    contains, and the generators outside it span a face of the cone of H's
    generators, so there is one prime per face, and the carrier gives the
    faces (``faces``).  Numerical and dim-1 generators lie on one line of
    the layout: a ray has the faces {all, none} and a line only {all}.  A
    finite H has the one face of all its generators.  Distinct faces give
    distinct primes: a generator on one face and off the other lies outside
    the first prime and inside the second.  The face lemma makes each a
    prime, so the primes depend on no window and are not rechecked on one;
    the tests hold every prime to `is_prime` and to a generator-subset
    oracle."""
    # the identity lies on every face, so it is outside no prime
    gens = [g for g in H.generators if g != H.one]
    faces = H.context.faces(gens)
    r = s_system(H)
    out = []
    for face in faces:
        outside = tuple(g for g in gens if g not in face)
        name = ("P_zero" if not outside else "P_max" if not face else
                f"P_face{sorted(face)}")
        out.append(RIdeal(r, outside, name=name))
    out.sort(key=lambda p: tuple(sort_key(g) for g in p.generators))
    return out


def spec_subbasis(H: Monoid, primes) -> FiniteSpace:
    """The Zariski space on primes with subbasis the principal opens D_r(g),
    g over H's generators.  These generate the whole topology, because
    D(g1...gk) is the intersection of the D(gi)."""
    return subbasis_space([p.name or repr(p) for p in primes], primes,
                          H.generators, lambda p, g: not p.contains(g))


def enumerate_ideals(H: Monoid, system: IdealSystem, bound: int):
    """All s-ideals whose minimal nonabsorbing element is <= bound, sorted
    by generator tuple; `system` is the s-system of H.

    Numerical kind: an s-ideal is generated by its minimal elements under
    x <= y iff y - x in S, which form an antichain for that order, and an
    ideal with minimum m has them in [m, m + Frobenius].  So the antichains
    of elements of S in [1, bound + Frobenius] whose least element is
    <= bound are the generator tuples of these ideals, one each; they are
    walked smallest element first, at a cost that follows the number of
    ideals.  The improper ideal H (minimum = identity) and the zero ideal
    {0} are included.  Raises UnsupportedRealization past MAX_IDEALS ideals,
    and on affine kind (infinite antichains)."""
    r = system
    if H.kind == "finite":
        zero = RIdeal(r, ())
        whole = RIdeal(r, (H.one,))
        return [zero, whole]
    if H.kind != "numerical":
        raise UnsupportedRealization("ideal enumeration needs numerical or finite kind")
    sgp = H.sgp
    frob = max(sgp.frobenius, 0)
    universe = [n for n in H.context.nonzero_window(bound + frob)
                if n > 0 and sgp.contains(n)]
    out = [RIdeal(r, ()),        # the zero ideal {0}
           RIdeal(r, (H.one,))]  # the improper ideal H
    # an antichain with the index of its largest element in the universe
    stack = [((n,), i) for i, n in enumerate(universe) if n <= bound]
    while stack:
        gens, i = stack.pop()
        out.append(RIdeal(r, gens))
        if len(out) > MAX_IDEALS:
            raise UnsupportedRealization(
                f"more than {MAX_IDEALS} ideals with minimum <= {bound}")
        for j in range(i + 1, len(universe)):
            y = universe[j]
            if not any(sgp.contains(y - x) for x in gens):
                stack.append((gens + (y,), j))
    out.sort(key=lambda I: tuple(sort_key(g) for g in I.generators))
    return out


def ideal_space_subbasis(ideals) -> FiniteSpace:
    """The space on a finite ideal list with subbasis U_r(x) = {I : x not in I},
    x over the generators of the listed ideals.  I is inside J exactly when
    J holds I's generators, so these opens give the specialization order,
    which determines a finite space."""
    xs = list(dict.fromkeys(g for I in ideals for g in I.generators))
    return subbasis_space([repr(I) for I in ideals], ideals, xs,
                          lambda I, x: not I.contains(x))


# -- axiom checking ---------------------------------------------------------

def check_ideal_axioms(r: IdealSystem, H: Monoid, bound: int = 10,
                       seed: int = 0):
    """Per-axiom verdicts for Id1-Id4 with counterexamples on failure.

    Exhaustive over all subsets of up to 3 points of the window universe
    when that universe has at most 13 elements, 500 seeded draws
    otherwise, of which Id2 scans the first 60, one item per X over the Y
    with X inside Y_r: the module axioms' plan on H's members, with Id4 in
    place of M2 and M4."""
    universe = [g for g in H.context.window(bound) if H.contains(g)]
    draw = _Draw(universe, budget=500, limit=13, seed=seed)
    w = _plan(H.context, universe, draw, [r], universe)
    return w.verdicts(draw, ("Id1", w.id1, "X"), ("Id2", w.id2, "XY", "X", 60),
                      ("Id3", w.id3, "X"), ("Id4", w.id4))[0]
