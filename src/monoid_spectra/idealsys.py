"""Ideal systems on a monoid H: the closure axioms, the s-system, finitary
closure, r-ideals, prime r-ideals and the spectrum and ideal spaces.

Listed s-ideals are read as int bitmasks on one ``layout.Read``
(``IdealRead``), as overmonoids are: an r-ideal answers ``has`` and
``span_mask``, the OR of H's translates by its generators, so the masks,
the prime flags and the ideal space need no product of window points."""

from __future__ import annotations

from .errors import UnsupportedRealization
from .fintop import FiniteSpace
from .layout import Read
from .modsys import ModuleSystem, members_in, product_closure
from .monoid import Monoid, sort_key
from .numsgp import _bits
from .window import _Draw, _plan

# Most ideals `enumerate_ideals` lists before it gives up.
MAX_IDEALS = 10_000


class IdealSystem(ModuleSystem):
    """Closure operator on subsets of H given by an oracle on finite subsets:
    a module system on the groupoid of H that carries H.

    ``closure(X)`` takes a frozenset of elements of H and returns an exact
    membership predicate for X_r."""

    def __init__(self, name, H: Monoid, closure, members=None, filled=()):
        super().__init__(name, H.context, closure, members, filled)
        self.H = H


def s_system(H: Monoid) -> IdealSystem:
    """The s-system: X_s = XH for nonempty X and {0} for X = empty set, the
    product closure of {H}."""
    return IdealSystem("s", H, *product_closure(H.context, [H]))


class RIdeal:
    """An r-ideal given by a finite generator list; membership is exact.
    Primes from ``enumerate_primes`` carry a ``name``.  A ``layout.Read``
    reads it as it reads an overmonoid, through ``has`` and ``span_mask``;
    the mask is XH, so only s-ideals have one."""

    def __init__(self, system: IdealSystem, generators, name=""):
        self.system = system
        self.generators = tuple(sorted(set(generators), key=sort_key))
        self.name = name
        self._member = system.closure(self.generators)

    def contains(self, g) -> bool:
        return self._member(g)

    def has(self, g) -> bool:
        """Membership of a carrier point, asked through ``contains``."""
        return self.contains(g)

    def span_mask(self, box):
        """XH on `box`, in its layout: the OR of xH over the nonzero
        generators x, each read by the layout (``translate``).  Raises
        ValueError unless the system is the product closure of [H] with no
        member filled, the s-system, whose ideals are XH."""
        r = self.system
        if r.members != [r.H] or r.filled:
            raise ValueError(f"{r!r} ideals are not read as XH")
        out, zero = 0, r.H.context.zero
        for x in self.generators:
            if x != zero:
                out |= box.translate(r.H, x)
        return out

    def __repr__(self):
        return f"RIdeal{self.generators}"


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
    the tests hold every prime to a pointwise `is_prime` and to a
    generator-subset oracle."""
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
    return FiniteSpace([p.name or repr(p) for p in primes], [sum(
        1 << k for k, g in enumerate(H.generators) if not p.contains(g))
        for p in primes])


def enumerate_ideals(H: Monoid, system: IdealSystem, bound: int):
    """All s-ideals whose minimal nonabsorbing element is <= bound, sorted
    by generator tuple: the carrier's generator tuples (``ideal_generators``)
    as ideals of `system`, the s-system of H.  Raises UnsupportedRealization
    past MAX_IDEALS ideals, and where the carrier lists none."""
    out = []
    for gens in H.context.ideal_generators(H, bound):
        out.append(RIdeal(system, gens))
        if len(out) > MAX_IDEALS:
            raise UnsupportedRealization(
                f"more than {MAX_IDEALS} ideals with minimum <= {bound}")
    out.sort(key=lambda I: tuple(sort_key(g) for g in I.generators))
    return out


class IdealRead:
    """Listed s-ideals of one H read as ints for one suite call, and the
    prime flags on `window` and the ideal space, which needs no window,
    read from them.  ``read`` lays out the window, the identity and the
    ideals' generators, with the window as moves, and reads each ideal as
    it reads an overmonoid (``layout.Read``): its moves for the flags, and
    its mask as its move by the identity, from its one ``span_mask`` on the
    wide layout, the OR of H's translates by its generators, so those are
    built on one layout, as every read has one.  H's generators are not
    laid out, so the window guards size the layout: window points within
    2 bound <= 2046 of 0 and generators at most bound + F(H) <= 2047 give
    at most 8 186 cells on the wide layout, below MAX_SPAN_BITS."""

    def __init__(self, ideals, window):
        self.H = H = ideals[0].system.H
        self.ideals = ideals
        ctx = H.context
        window = [g for g in window if g != ctx.zero]
        self.xs = list(dict.fromkeys(g for I in ideals for g in I.generators))
        self.read = read = Read(ctx, [*window, ctx.one, *self.xs],
                                moves=window)
        self.masks = [read.moved(I, ctx.one) for I in ideals]
        # H's window part
        self.part = read.mask(H) & sum(1 << read.bit(g) for g in window)

    def prime_flags(self) -> list:
        """Whether each ideal is prime on the window: no a, b of H outside
        I there multiply into I.  I is not prime when it holds the
        identity, or when some a of O, the window part of H outside I, has
        I moved back by a meeting O; a is a move of the read."""
        read = self.read
        one = 1 << read.bit(self.H.context.one)
        flags = []
        for I, m in zip(self.ideals, self.masks):
            O = self.part & ~m
            flags.append(not m & one and not any(
                O & read.moved(I, read.point(b)) for b in _bits(O)))
        return flags

    def space(self) -> FiniteSpace:
        """The space on the ideals with subbasis U_r(x) = {I : x not in I},
        x over their generators: I's profile is their bits that I's mask
        misses.  I is inside J exactly when J holds I's generators, so these
        opens give the specialization order, which fixes a finite space."""
        xs = sum(1 << self.read.bit(x) for x in self.xs)
        return FiniteSpace([repr(I) for I in self.ideals],
                           [xs & ~m for m in self.masks])


# -- axiom checking ---------------------------------------------------------

def check_ideal_axioms(r: IdealSystem, H: Monoid, bound: int = 10,
                       seed: int = 0):
    """Per-axiom verdicts for Id1-Id4 with counterexamples on failure.

    Exhaustive over all subsets of up to 3 points of the window universe
    when that universe has at most 13 elements, 500 seeded draws
    otherwise, of which Id2 scans the first 60, one item per X over the Y
    with X inside Y_r: the module axioms' plan on H's members, with Id4,
    whose moves are the nonzero members, in place of M2 and M4.  H's
    window points are read as one mask (``modsys.members_in``)."""
    universe = members_in(H, H.context.window(bound))
    draw = _Draw(universe, budget=500, limit=13, seed=seed)
    w = _plan(H.context, universe, draw, [r], universe,
              moves=[g for g in universe if g != H.context.zero])
    return w.verdicts(draw, ("Id1", w.id1, "X"), ("Id2", w.id2, "XY", "X", 60),
                      ("Id3", w.id3, "X"), ("Id4", w.id4))[0]
