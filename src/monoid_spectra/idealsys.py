"""Ideal systems on a monoid H: the closure axioms, the s-system, finitary
closure, r-ideals, prime r-ideals and the spectrum and ideal spaces.

Listed s-ideals are read as int bitmasks (``IdealRead``), one layout read
each, and the prime flags and the ideal space are read from those masks."""

from __future__ import annotations

from .errors import UnsupportedRealization
from .fintop import FiniteSpace
from .modsys import ModuleSystem, product_closure
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
    by generator tuple; `system` is the s-system of H.

    Numerical kind: an s-ideal is generated by its minimal elements under
    x <= y iff y - x in S, which form an antichain for that order, and an
    ideal with minimum m has them in [m, m + Frobenius].  So the antichains
    of elements of S in [1, bound + Frobenius] whose least element is
    <= bound are the generator tuples of these ideals, one each; they are
    walked smallest element first, at a cost that follows the number of
    ideals.  The universe is S's span there, and an antichain is extended
    by its bits above the antichain's last element outside the OR of its
    members' moved semigroup masks.  The improper ideal H (minimum =
    identity) and the zero ideal {0} are included.  Raises
    UnsupportedRealization past MAX_IDEALS ideals, and on affine kind
    (infinite antichains)."""
    r = system
    if H.kind == "finite":
        return [RIdeal(r, ()), RIdeal(r, (H.one,))]
    if H.kind != "numerical":
        raise UnsupportedRealization("ideal enumeration needs numerical or finite kind")
    sgp = H.sgp
    top = bound + max(sgp.frobenius, 0)
    H.context.window(top)  # refused past MAX_WINDOW points, as its window
    universe = sgp.span(0, top + 1) & -2
    members = ~sgp.gap_mask
    out = [RIdeal(r, ()),        # the zero ideal {0}
           RIdeal(r, (H.one,))]  # the improper ideal H
    # an antichain with the OR of its members' moved semigroup masks
    stack = [((n,), members << n) for n in _bits(universe & (2 << bound) - 1)]
    while stack:
        gens, covered = stack.pop()
        out.append(RIdeal(r, gens))
        if len(out) > MAX_IDEALS:
            raise UnsupportedRealization(
                f"more than {MAX_IDEALS} ideals with minimum <= {bound}")
        for y in _bits(universe & ~covered & -(2 << gens[-1])):
            stack.append((gens + (y,), covered | members << y))
    out.sort(key=lambda I: tuple(sort_key(g) for g in I.generators))
    return out


class IdealRead:
    """Listed s-ideals of one H read as ints for one suite call, each once,
    and the prime flags on a window and the ideal space read from them.

    ``box`` is the layout around the window's points, H's generators and
    the ideals' generators, moved by each window point, so it holds every
    product of a window point with one of them.  H is read once, as its
    span on the layout around ``box`` moved back by each ideal generator;
    each ideal XH is the zero and the OR of that span moved by X's nonzero
    points, and so is H itself, as (1)H.
    The window guards keep that layout far below MAX_SPAN_BITS (9 209
    cells, pronconst on <2,3> at its largest bound); only a lowered cap
    asks each set at each cell.  A ``Box`` and a ``Table`` answer alike."""

    def __init__(self, ideals, window):
        self.H = H = ideals[0].system.H
        self.ideals = ideals
        ctx = H.context
        self.points = [g for g in window if g != ctx.zero]
        self.xs = list(dict.fromkeys(g for I in ideals for g in I.generators))
        nonzero = [x for x in [ctx.one, *self.xs] if x != ctx.zero]
        box = ctx.box([*self.points, *H.generators, *self.xs]).around(
            self.points)
        back = box.around([ctx.inv(x) for x in nonzero])
        self.box = box = box.with_stride(back.stride)
        h = H.span_mask(back)
        shift = {x: box.shift(back, x) for x in nonzero}

        def read(X, member):
            if h is None:
                return sum(1 << b for b, g in box.cells()
                           if g is not None and member(g))
            out = 0
            for x in X:
                if x != ctx.zero:
                    out |= box.moved(h, shift[x])
            return out

        self.whole = read([ctx.one], H.has)
        zero = 1 << box.bit(ctx.zero)
        self.masks = [zero | read(I.generators, I.contains) for I in ideals]

    def prime_flags(self) -> list:
        """Whether each ideal is prime on the window: no a, b of H outside
        I there multiply into I.  I is not prime when it holds the
        identity, or when some a of O, the window part of H outside I, has
        I moved back by a meeting O."""
        ctx, box = self.H.context, self.box
        inner = ctx.box(self.points).with_stride(box.stride)
        at = {inner.bit(g): g for g in self.points}
        home = box.start(inner, None)
        h = box.moved(self.whole, home) & sum(1 << b for b in at)
        one = 1 << box.bit(ctx.one)
        flags = []
        for m in self.masks:
            O = h & ~box.moved(m, home)
            flags.append(not m & one and not any(
                O & box.moved(m, box.start(inner, at[b])) for b in _bits(O)))
        return flags

    def space(self) -> FiniteSpace:
        """The space on the ideals with subbasis U_r(x) = {I : x not in I},
        x over their generators: I's profile is their bits that I's mask
        misses.  I is inside J exactly when J holds I's generators, so these
        opens give the specialization order, which fixes a finite space."""
        xs = sum(1 << self.box.bit(x) for x in self.xs)
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
    whose moves are the nonzero members, in place of M2 and M4."""
    universe = [g for g in H.context.window(bound) if H.contains(g)]
    draw = _Draw(universe, budget=500, limit=13, seed=seed)
    w = _plan(H.context, universe, draw, [r], universe,
              moves=[g for g in universe if g != H.context.zero])
    return w.verdicts(draw, ("Id1", w.id1, "X"), ("Id2", w.id2, "XY", "X", 60),
                      ("Id3", w.id3, "X"), ("Id4", w.id4))[0]
