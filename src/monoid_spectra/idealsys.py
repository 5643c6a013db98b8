"""Ideal systems on a monoid H: the closure axioms, the s-system, finitary
closure, r-ideals, prime r-ideals, spectrum/ideal-space subbases and the
non-primality witness sets O_{a,b}."""

from __future__ import annotations

import random

from .errors import UnsupportedRealization
from .fintop import FiniteSpace, subbasis_space
from .intgeom import faces_2d
from .modsys import (ModuleSystem, _sample_subsets, _verdicts, _Window,
                     product_closure)
from .monoid import INF, Monoid, sort_key

# Most ideals `enumerate_ideals` lists before it gives up.
MAX_IDEALS = 10_000


class IdealSystem(ModuleSystem):
    """Closure operator on subsets of H given by an oracle on finite subsets:
    a module system on the groupoid of H that carries H.

    ``closure(X)`` takes a frozenset of elements of H and returns an exact
    membership predicate for X_r."""

    def __init__(self, name, H: Monoid, closure):
        super().__init__(name, H.context, closure)
        self.H = H


def s_system(H: Monoid) -> IdealSystem:
    """The s-system: X_s = XH for nonempty X and {0} for X = empty set, the
    product closure of {H}."""
    return IdealSystem("s", H, product_closure(H.context, [H]))


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

    def equals(self, other: "RIdeal") -> bool:
        """Mutual generator membership; exact because closures are exact."""
        return (all(other.contains(g) for g in self.generators)
                and all(self.contains(g) for g in other.generators))

    def __repr__(self):
        return f"RIdeal{self.generators}"


def is_prime(I: RIdeal, window) -> bool:
    """No a, b outside I (within the window) multiply into I.  The improper
    ideal is rejected."""
    H = I.system.H
    if I.contains(H.one):
        return False
    members = [g for g in window if H.contains(g)]
    outside = [g for g in members if not I.contains(g)]
    for a in outside:
        for b in outside:
            if I.contains(H.op(a, b)):
                return False
    return True


def enumerate_primes(H: Monoid, bound: int = 10):
    """All prime s-ideals of H.  Numerical: the zero ideal and the maximal
    ideal.  Affine: one prime per face of the generated cone.  Finite: the
    zero ideal only."""
    r = s_system(H)
    window = H.context.window(bound)
    out = []
    if H.kind == "numerical":
        out.append(RIdeal(r, (), name="P_zero"))
        out.append(RIdeal(r, H.generators, name="P_max"))
    elif H.kind == "affine":
        if H.dim > 2:
            raise UnsupportedRealization("prime enumeration needs dimension <= 2")
        gens2 = H.generators if H.dim == 2 else tuple((g[0], 0) for g in H.generators)
        if H.dim == 1:
            faces = [frozenset(gens2), frozenset()] if all(
                g[0] >= 0 for g in gens2) else [frozenset(gens2)]
        else:
            faces = faces_2d(gens2)
        back = {(g[0], 0): g for g in H.generators} if H.dim == 1 else None
        for face in faces:
            if H.dim == 1:
                gens = tuple(back[f] for f in face) if face else ()
                outside = tuple(g for g in H.generators if g not in gens)
            else:
                outside = tuple(g for g in H.generators if g not in face)
            name = "P_zero" if not outside else (
                "P_max" if len(outside) == len(set(H.generators)) else
                f"P_face{sorted(face)}")
            out.append(RIdeal(r, outside, name=name))
    elif H.kind == "finite":
        out.append(RIdeal(r, (), name="P_zero"))
    else:
        raise UnsupportedRealization(H.kind)
    for p in out:
        if not is_prime(p, window):
            raise AssertionError(f"enumerated ideal {p} failed the prime recheck")
    # dedupe (a face may coincide with another at degenerate cones)
    uniq = []
    for p in out:
        if not any(p.equals(q) for q in uniq):
            uniq.append(p)
    uniq.sort(key=lambda p: tuple(sort_key(g) for g in p.generators))
    return uniq


def spec_subbasis(H: Monoid, primes, bound: int = 10) -> FiniteSpace:
    """The Zariski space on primes with subbasis the principal opens D_r(f)."""
    window = [g for g in H.context.window(bound) if H.contains(g)]
    return subbasis_space([p.name or repr(p) for p in primes], primes,
                          window, lambda p, f: not p.contains(f))


def signature_window(H: Monoid, bound: int):
    """Window on which distinct enumerated ideals provably differ: for
    numerical H an ideal with minimum <= bound is pinned down by its elements
    up to bound + 2 * Frobenius + max generator."""
    if H.kind == "numerical":
        frob = max(H.sgp.frobenius, 0)
        ext = bound + 2 * frob + max(H.generators) + 2
        return [n for n in H.sgp.elements_upto(ext)] + [INF]
    return H.context.window(bound)


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
    universe = [n for n in sgp.elements_upto(bound + frob) if n > 0]
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


def ideal_space_subbasis(ideals, H: Monoid, bound: int = 10) -> FiniteSpace:
    """The space on a finite ideal list with subbasis U_r(x) = {I : x not in I},
    with x running over the signature window so listed ideals separate."""
    window = [g for g in signature_window(H, bound) if H.contains(g)]
    return subbasis_space([repr(I) for I in ideals], ideals, window,
                          lambda I, x: not I.contains(x))


def o_set(a, b, ideals, H: Monoid):
    """O_{a,b}: ideals avoiding a and b but containing ab; primes never lie in
    any O_{a,b}."""
    ab = H.op(a, b)
    return [I for I in ideals
            if not I.contains(a) and not I.contains(b) and I.contains(ab)]


# -- axiom checking ---------------------------------------------------------

def check_ideal_axioms(r: IdealSystem, H: Monoid, bound: int = 10,
                       sample_budget: int = 500, seed: int = 0,
                       max_subset_size: int = 3):
    """Per-axiom verdicts for Id1-Id4 with counterexamples on failure.

    Exhaustive over all subsets of the window universe up to
    ``max_subset_size`` when that universe has at most 13 elements, sampled
    (seeded) otherwise."""
    ctx = H.context
    universe = [g for g in ctx.window(bound) if H.contains(g)]
    subsets, exhaustive = _sample_subsets(
        universe, exhaustive_limit=13, max_subset_size=max_subset_size,
        sample_budget=sample_budget, seed=seed)
    if exhaustive:
        id2_subsets, id3_subsets = subsets, subsets
        id3_scalars, id3_points = universe, universe
    else:
        # cap the quadratic and cubic scans on big windows
        rng = random.Random(seed + 1)
        id2_subsets = subsets[:60]
        id3_subsets = subsets[:40]
        id3_scalars = rng.sample(universe, min(12, len(universe)))
        id3_points = rng.sample(universe, min(40, len(universe)))
    w = _Window(r, universe)

    # Id2: X subset of Y_r implies X_r subset of Y_r
    id2 = ((w.mask(X), w.mask(Y), (("X", X), ("Y", Y)))
           for X in id2_subsets for Y in id2_subsets
           if not w.of(X) & ~w.mask(Y))

    def id4():
        """Id4: cH subset of {c}_r."""
        for n, c in enumerate(universe, 1):
            member = w.reader(frozenset([c]))
            h = next((h for h in universe if not member(ctx.op(c, h))), None)
            if h is not None:
                return n, {"c": repr(c), "h": repr(h)}
        return len(universe), None

    return _verdicts([("Id1", w.id1(subsets, "X")), ("Id2", w.escape(id2)),
                      ("Id3", w.id3(id3_subsets, id3_scalars, id3_points, "X")),
                      ("Id4", id4())], exhaustive)
