"""Module systems on the quotient groupoid G: closure oracles on finite
subsets of G, the product-with-overmonoid-intersection construction, meets,
the space of main1's systems, and a falsifier for finitariness of
parameterized families.  The system space, the overmonoid embedding and
the family checks read each overmonoid once, as one int from a
``layout.Read`` of the window."""

from __future__ import annotations

from .fintop import FiniteSpace, first_repeat
from .layout import Read
# family_from_file lives beside the monoid readers and is also read from here
from .monoid import (CarrierMismatch, DeltaFamily, Monoid, Overmonoid,
                     family_from_file, sort_key)
from .report import Check
from .window import _Draw, _plan, _Window
# The members of a parameterized family that ``check_family`` rechecks and
# ``falsify_finitary`` searches: indices 1..FAMILY_DEPTH.
FAMILY_DEPTH = 6


class ModuleSystem:
    """Closure operator A -> A_r on finite subsets of G.

    A system is its ``members``, the overmonoids S of the product closure
    A -> intersection over S of SA, with 0, where 0S is G for the members
    at the positions in ``filled`` and {0} for the others: g is in A_r iff
    for every S some nonzero a in A has a^{-1} g in S, or A holds the zero
    and S is filled.  It is exact for finite A, and an empty list gives
    all of G.  ``closure(A)`` takes a finite subset of G, checked here
    (CarrierMismatch otherwise), and returns an exact membership predicate
    for A_r, which answers False off the carrier.  A ``window._Window``
    reads A_r from the members' masks, trusting its sets, as they come
    from the carrier's window.  A system that names no members (``members``
    None) is its ``rule``: ``rule(A, layout)`` is A_r on the layout's
    carrier cells and the zero's bit, one int, which a window asks once
    per set; such a system has no ``closure``."""

    def __init__(self, name, context, members=None, filled=(), rule=None):
        self.name = name
        self.context = context
        self.members = members
        self.filled = filled
        self.rule = rule

    def closure(self, A):
        A = frozenset(A)
        ctx = self.context
        for a in A:
            ctx.check(a)
        zero = ctx.zero
        inverses = [ctx.inv(a) for a in sorted(
            (a for a in A if a != zero), key=sort_key)]
        held = zero in A
        rest = [S for i, S in enumerate(self.members)
                if not (held and i in self.filled)]

        def member(g):
            if not ctx.contains(g):
                return False
            if g == zero:
                return True
            for S in rest:
                for b in inverses:
                    if S.has(ctx.op(b, g)):
                        break
                else:
                    return False
            return True

        return member

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


def example16(H: Monoid) -> ModuleSystem:
    """A_r = G when 0 is in A, otherwise AH with 0 adjoined: the product
    closure of [H] with H filled.  Satisfies Id1, M2, Id3 and M4 but not
    Id2."""
    return ModuleSystem("example16", H.context, [H], filled=(0,))


def iota(S: Overmonoid) -> ModuleSystem:
    """The system of the singleton family {S}: A -> SA (with 0)."""
    return ModuleSystem(f"r_{S.name or 'S'}", S.context, [S])


def meet(systems) -> ModuleSystem:
    """Pointwise intersection of product closures; the infimum for the
    coarser-than order: the product closure of all their members, with
    their filled members filled."""
    systems = list(systems)
    if not systems:
        raise ValueError("meet of an empty list")
    members, filled = [], []
    for r in systems:
        filled += [len(members) + i for i in r.filled]
        members += r.members
    return ModuleSystem(f"meet({'^'.join(r.name for r in systems)})",
                        systems[0].context, members, filled)


# -- axiom checking ----------------------------------------------------------

def members_in(H, window):
    """H's points of `window`, in its order, the zero kept: one mask of H
    on a ``layout.Read`` of the window."""
    read = Read(H.context, window)
    h = read.mask(H)
    return [g for g in window if g == H.context.zero or h >> read.bit(g) & 1]


def check_module_axioms(systems, H, bound: int = 4, seed: int = 0):
    """Id1 / M2 / Id3 / M4 verdicts on windowed data, one list of verdicts
    per system of `systems`.  Subsets range over the G-window (not only H),
    since module systems act on the groupoid: all subsets of up to 3 points
    of a window of at most 12, 300 seeded draws otherwise.

    Input is validated here, at the boundary: every system must live on H's
    carrier (CarrierMismatch otherwise), whose window gives the points.
    What no system changes is planned once per call and
    dropped on return: the subset draw, the Id3 scalars and points, the M4
    translators (H's nonzero points of the window, ``members_in``), the
    layouts masks are read on, each point's shift and column, each
    member's mask and each set's read (``_Window``).

    The systems are scanned together: each that names its members takes a
    slot of a packed int, as many to a pack as fit in MAX_SPAN_BITS bits,
    and every item is one int compare for all slots of a pack; an M2 item
    is a drawn A with all its drawn proper supersets.  A failing slot reads
    its witness from its own bits of that item, the one a call of its own
    would find, and stops that system's scan.  Window sets and their images
    reach each system's ``members`` unchecked; a system that names none is
    read from its ``rule``, once per set, in packs of its own."""
    ctx = H.context
    if any(r.context is not ctx for r in systems):
        raise CarrierMismatch("a module system off H's carrier")
    universe = ctx.window(bound)
    nonzero = [g for g in universe if g != ctx.zero]
    draw = _Draw(universe, seed=seed)
    w = _plan(ctx, universe, draw, systems, nonzero,
              [g for g in members_in(H, universe) if g != ctx.zero])
    return w.verdicts(draw, ("Id1", w.id1, "A"), ("M2", w.m2),
                      ("Id3", w.id3, "A"), ("M4", w.m4))


def system_window(r: ModuleSystem, bound: int):
    """The window of r alone on its carrier's window of `bound`, without
    scalars or translators: what ``check_id2``, ``check_idempotent`` and
    ``is_finitary`` scan.  Given to several of them, it reads each set
    once for all."""
    return _Window(r.context, r.context.window(bound), [r])


def _window_of(r, bound, window):
    """`window`, a ``system_window`` of r, or a new one."""
    if window is None:
        return system_window(r, bound)
    if window.systems != [r]:
        raise ValueError("a window of another system")
    return window


def check_id2(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
              seed: int = 0, window=None):
    """Id2: A subset of B_r implies A_r subset of B_r, over subsets of up to
    2 points: M2 on the pairs with A inside B_r, one item per B, on
    `window`, a ``system_window(r, bound)``, or a new one.  Returns the
    verdict with a counterexample when it fails."""
    w = _window_of(r, bound, window)
    draw = _Draw(w.universe, size=2, budget=sample_budget, seed=seed)
    return w.verdicts(draw, ("Id2", w.id2, "AB", "B"))[0][0]


def check_idempotent(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                     seed: int = 0, window=None):
    """(A_r)_r = A_r tested through the window slice of A_r, over subsets of
    up to 2 points, on `window` as ``check_id2`` takes it.  The slice is a
    subset of A_r, so its closure sits inside (A_r)_r; any point of it
    outside A_r is an honest counterexample, and agreement on all samples
    is reported as a bounded pass."""
    w = _window_of(r, bound, window)
    draw = _Draw(w.universe, size=2, budget=sample_budget, seed=seed)
    return w.verdicts(draw, ("idempotent", w.idempotent), exhaustive=False,
                      bound=bound, detail="window slice approximation")[0][0]


def is_finitary(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                seed: int = 0, window=None) -> Check:
    """The bounded ``finitary`` verdict on sampled finite sets A, on
    `window` as ``check_id2`` takes it: the closure of every subset of A
    lies inside A_r, which is M2 over A's subsets, read as the closures of
    the A - a and the union below each, kept for the scan.  The converse,
    A_r inside the union of those closures, is free, as A is one of them;
    so this is no test of finitariness on an infinite A."""
    w = _window_of(r, bound, window)
    draw = _Draw(w.universe, budget=sample_budget, seed=seed)
    return w.verdicts(draw, ("finitary", w.finitary), exhaustive=False,
                      bound=bound)[0][0]


# -- the system space --------------------------------------------------------

def separating_points(ctx, overmonoids, bound: int):
    """The nonzero window, then the nonzero generators of every member, each
    point once.  Two distinct generator-backed overmonoids differ at a
    generator of one of them, so these points tell such members apart, and
    order them by inclusion, exactly."""
    return list(dict.fromkeys([*ctx.nonzero_window(bound),
                               *(g for S in overmonoids for g in S.gens or ()
                                 if g != ctx.zero)]))


def separating_masks(ctx, overmonoids, bound: int, sets):
    """Each of `sets` on the ``separating_points`` as one int: its window
    part from one ``layout.Read`` of the window, which the window guard
    bounds, then a bit per generator past it, asked through ``has``."""
    window = ctx.nonzero_window(bound)
    read = Read(ctx, window)
    top = read.full.bit_length()
    rest = separating_points(ctx, overmonoids, bound)[len(window):]
    return [read.mask(S) | sum(S.has(g) << top + i
                               for i, g in enumerate(rest)) for S in sets]


class SystemSpace:
    """The finite carrier of main1's module systems, iota(S) for S over
    `overmonoids` and then example16(H), with the subbasis U_A, A over the
    nonempty finite subsets of G, of the systems r with 1 in A_r.

    U_A is the union of the U_{a}, a in A, on these systems (1 is in SA when
    it is in Sa for some a, and example16 fills G when 0 is in A), so the
    U_{0} and the U_{x^{-1}}, x over the ``separating_points`` at `bound`,
    give the topology as far as the points tell it.  1 is in {x^{-1}}_r
    exactly when every member of r holds x, and only example16 has 1 in
    {0}_r, so each system's profile is one member's part of the points:
    S's for iota(S), H's plus one bit for U_{0} for example16."""

    def __init__(self, H, overmonoids, bound: int):
        self.H, self.overmonoids, self.bound = H, list(overmonoids), bound
        self.systems = [*map(iota, self.overmonoids), example16(H)]
        self._space = None

    def space(self) -> FiniteSpace:
        """The space on the systems, built on the first call: each member
        is read once on the points (``separating_masks``), and no closure
        is asked."""
        if self._space is None:
            masks = separating_masks(self.H.context, self.overmonoids,
                                     self.bound, [*self.overmonoids, self.H])
            masks[-1] |= 1 << max(masks).bit_length()  # U_{0}
            self._space = FiniteSpace([r.name for r in self.systems], masks)
        return self._space

    def t0_witnesses(self):
        """The first pair (i, j) of carrier systems, in
        ``itertools.combinations`` order, that no U_{0} or U_{x^{-1}} tells
        apart, or None: the first repeat of their profiles."""
        return first_repeat(self.space().profiles)


# -- the finitariness falsifier ----------------------------------------------

def falsify_finitary(delta: DeltaFamily, ctx, bound: int = 6):
    """Search for the non-finitariness certificate of a parameterized family:
    elements x_k in S_k missed by every later member, for k up to
    FAMILY_DEPTH.  On success the set A = {x_k^{-1}} has the identity in its
    closure over those members while the part without the last x_k does not;
    returns the witness record, or None when no certificate exists up to
    that index.  Each member is read once on the window
    (``layout.Read``), and x_k is the first window point of S_k's mask
    outside the later members' masks."""
    read = Read(ctx, ctx.nonzero_window(bound))
    members = [delta.member(k) for k in range(1, FAMILY_DEPTH + 1)]
    masks = list(map(read.mask, members))
    xs = []
    for k in range(1, FAMILY_DEPTH + 1):
        later = 0
        for m in masks[k:]:
            later |= m
        alone = masks[k - 1] & ~later
        if not alone:
            return None
        xs.append(read.point((alone & -alone).bit_length() - 1))
    A = frozenset(ctx.inv(x) for x in xs)
    target = ctx.one
    truncated = ModuleSystem(delta.name, ctx, members).closure
    if not truncated(A)(target):
        return None
    F = frozenset(ctx.inv(x) for x in xs[:-1])
    if truncated(F)(target):
        return None
    return {"A": sorted(map(repr, A)), "target": repr(target),
            "separating_index": FAMILY_DEPTH}


# -- the overmonoid embedding ------------------------------------------------

def embedding_checks(overmonoids, ctx, bound: int = 4) -> Check:
    """Injectivity of the map S -> r_{{S}} on a finite overmonoid carrier:
    the closures of {1}, which are the S themselves, are pairwise distinct
    at the ``separating_points``, so on a generator-backed carrier the check
    is exact.  Each closure of {1} is read as S's own membership, once for
    all the points (``separating_masks``).  The witness is the second
    member of the first pair with one closure (``first_repeat``)."""
    ones = separating_masks(ctx, overmonoids, bound, overmonoids)
    pair = first_repeat(ones)
    return Check("iota-injective", pair is None, witness=None if pair is None
                 else {"S": repr(overmonoids[pair[1]])},
                 n=len(ones), bound=bound)


def check_family(delta: DeltaFamily, ctx, bound: int = 4):
    """Pointwise recheck of a parameterized family's declarations on its
    first FAMILY_DEPTH members: members decrease along the index and the
    declared limit sits inside every member.  Each member and the limit is
    read once on the window (``layout.Read``), and a pair's first point of
    the inner mask outside the outer one is its witness."""
    window = ctx.nonzero_window(bound)
    read = Read(ctx, window)
    masks = {k: read.mask(delta.member(k))
             for k in range(1, FAMILY_DEPTH + 1)}
    limit = read.mask(delta.limit)

    def inside(name, pairs):
        """Each (k, inner, outer) has inner inside outer on the window; one
        item per (k, g), as ``Check.scan`` counts them."""
        for n, (k, inner, outer) in enumerate(pairs):
            bad = inner & ~outer
            if bad:
                i = window.index(read.point((bad & -bad).bit_length() - 1))
                return Check(name, False, witness={"k": k,
                                                   "g": repr(window[i])},
                             n=n * len(window) + i + 1, bound=bound)
        return Check(name, True, n=len(pairs) * len(window), bound=bound)

    return [inside("family-decreasing",
                   [(k, masks[k + 1], masks[k])
                    for k in range(1, FAMILY_DEPTH)]),
            inside("family-limit-lower-bound",
                   [(k, limit, masks[k])
                    for k in range(1, FAMILY_DEPTH + 1)])]
