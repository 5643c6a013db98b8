import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import intgeom
from monoid_spectra.intgeom import (cone_contains_2d, faces_2d, hnf_rows,
                                    lattice_contains, monoid_contains, neg)


def brute_lattice_contains(gens, v):
    # exact linear algebra over the rationals, independent of the row
    # reduction under test
    from fractions import Fraction
    from math import gcd

    gens = [g for g in gens if any(g)]
    if not gens:
        return not any(v)
    for a, b in itertools.combinations(gens, 2):
        det = a[0] * b[1] - a[1] * b[0]
        if det != 0:
            x = Fraction(v[0] * b[1] - v[1] * b[0], det)
            y = Fraction(a[0] * v[1] - a[1] * v[0], det)
            if x.denominator == 1 and y.denominator == 1:
                return True
    if any(a[0] * b[1] - a[1] * b[0] for a, b in
           itertools.combinations(gens, 2)):
        return False
    # all generators parallel: reduce to multiples of a primitive direction
    g0 = gens[0]
    c = gcd(abs(g0[0]), abs(g0[1]))
    prim = (g0[0] // c, g0[1] // c)
    scal = 0
    for g in gens:
        k = g[0] // prim[0] if prim[0] else g[1] // prim[1]
        assert (prim[0] * k, prim[1] * k) == g
        scal = gcd(scal, abs(k))
    k = v[0] // prim[0] if prim[0] else (v[1] // prim[1] if prim[1] else 0)
    return (prim[0] * k, prim[1] * k) == v and k % scal == 0


def test_hnf_membership_agrees_with_small_combinations():
    cases = [
        ((2, 0), (0, 2)),
        ((2, 4), (3, 5)),
        ((1, 2), (2, 1)),
        ((6, 0), (4, 0)),
    ]
    box = [(a, b) for a in range(-5, 6) for b in range(-5, 6)]
    for gens in cases:
        gens2 = tuple((g[0], g[1]) for g in gens)
        basis = hnf_rows(gens2)
        for v in box:
            assert lattice_contains(basis, v) == brute_lattice_contains(gens2, v), \
                (gens, v)


def test_hnf_one_dimensional():
    basis = hnf_rows(((4, 0), (6, 0)))
    assert lattice_contains(basis, (2, 0))
    assert not lattice_contains(basis, (1, 0))
    assert not lattice_contains(basis, (0, 1))


def rational_cone_contains(gens, v):
    # v in cone(gens) iff some pair of generators spans it nonnegatively,
    # checked with exact rational arithmetic via cross products
    from fractions import Fraction
    gens = [g for g in gens if g != (0, 0)]
    if v == (0, 0):
        return True
    for g in gens:
        cr = g[0] * v[1] - g[1] * v[0]
        if cr == 0 and g[0] * v[0] + g[1] * v[1] > 0:
            return True
    for a, b in itertools.combinations(gens, 2):
        det = a[0] * b[1] - a[1] * b[0]
        if det == 0:
            continue
        s = Fraction(v[0] * b[1] - v[1] * b[0], det)
        t = Fraction(a[0] * v[1] - a[1] * v[0], det)
        if s >= 0 and t >= 0:
            return True
    return False


def test_cone_membership_against_rational_oracle():
    cases = [
        ((1, 0), (0, 1)),
        ((1, 2), (2, 1)),
        ((1, 0), (0, 1), (-1, 1)),
        ((1, 1), (1, -1)),
        ((1, 0), (-1, 0), (0, 1)),
        ((1, 2), (2, 1), (-1, -1)),
    ]
    box = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for gens in cases:
        for v in box:
            assert cone_contains_2d(gens, v) == rational_cone_contains(gens, v), \
                (gens, v)


# closed-form membership, derived by hand for each generating set
CLOSED_FORMS = {
    ((1, 0), (0, 1)): lambda a, b: a >= 0 and b >= 0,
    ((1, 0), (0, 1), (0, -1)): lambda a, b: a >= 0,
    ((1, 0), (-1, 0), (0, 1)): lambda a, b: b >= 0,
    ((1, 0), (0, 1), (-1, 1)): lambda a, b: b >= 0 and a + b >= 0,
    ((1, 0), (0, 1), (-1, 2)): lambda a, b: b >= 0 and 2 * a + b >= 0,
    ((2, 0), (0, 2), (1, 1)): lambda a, b: a >= 0 and b >= 0 and (a - b) % 2 == 0,
    ((2, 0), (3, 0), (0, 1)): lambda a, b: b >= 0 and a >= 0 and a != 1,
    ((1, 1), (1, -1)): lambda a, b: a >= abs(b) and (a - b) % 2 == 0,
    ((1, 2), (2, 1), (-1, -1)): lambda a, b: True,
}


def test_monoid_membership_against_closed_forms():
    box = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    for gens, form in CLOSED_FORMS.items():
        for v in box:
            if not lattice_contains(hnf_rows(gens), v):
                assert not monoid_contains(gens, v), (gens, v)
                continue
            assert monoid_contains(gens, v) == form(*v), (gens, v)


def reachable_2d(gens, radius):
    """Sums of generators reachable from 0 by steps that stay in the box of
    the given radius."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = (v[0] + g[0], v[1] + g[1])
            if max(abs(w[0]), abs(w[1])) <= radius and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_monoid_membership_against_bounded_reachability():
    # pointed generating sets: membership within a box equals reachability by
    # generator sums that stay in a padded box
    cases = [((1, 0), (0, 1)), ((2, 0), (0, 2), (1, 1)), ((1, 2), (2, 1))]
    for gens in cases:
        reach = reachable_2d(gens, 14)
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert monoid_contains(gens, (a, b)) == ((a, b) in reach), \
                    (gens, a, b)


def invertible_rank(gens):
    """Rank of the lattice of the generators whose negative is in the cone."""
    glist = [g for g in gens if g != (0, 0)]
    return len(hnf_rows([g for g in glist if cone_contains_2d(glist, neg(g))]))


BOX4 = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]


def test_compiled_membership_matches_reachability():
    """Generating sets of 1-4 vectors of sup-norm <= 2, and their mirror
    images -gens, which put the pointed generators of a rank-1 set on the
    other side of its line, asked on the radius-4 box.  When g1 + ... + gk
    = x lands there, the Steinitz lemma (constant d = 2 in any norm) applied
    to the zero-sum vectors gi - x/k, of norm <= 2 + 4/k, orders them so
    that every partial sum is within 4 + 8/k of its point on the segment
    [0, x], so inside the radius-12 box for k >= 2: reachability inside that
    box is exact.  Each set is asked in a shuffled order and again through
    a permuted generator tuple, so no answer may depend on which query
    filled the shared memo.  On every set whose invertible generators span
    rank 2 it also checks the lemma that leaves `submonoid_2d` no coset
    search: their cone is then the plane, so every generator is
    invertible."""
    ranks = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=1, max_size=4), st.randoms())
    def check(gens, rnd):
        for gens in (tuple(gens), tuple(map(neg, gens))):
            ranks.add(invertible_rank(gens))
            if invertible_rank(gens) == 2:
                assert all(cone_contains_2d(gens, neg(g)) for g in gens), gens
            reach = reachable_2d(gens, 12)
            for order in (gens, tuple(rnd.sample(gens, len(gens)))):
                points = rnd.sample(BOX4, len(BOX4))
                assert {x: monoid_contains(order, x) for x in points} == \
                    {x: x in reach for x in points}, order

    check()
    assert ranks == {0, 1, 2}


def test_far_points_need_no_recursion():
    """The walk keeps its path on an explicit stack, so a point thousands of
    steps from 0 is decided at rank 0 and at rank 1."""
    monoid_contains.cache_clear()
    intgeom.submonoid_2d.cache_clear()
    assert monoid_contains(((1, 0), (0, 1)), (900, 900))
    assert monoid_contains(((1, 0), (0, 1), (0, -1)), (2500, 7))
    assert not monoid_contains(((2, 0), (0, 1), (0, -1)), (2501, 7))


def reach_memos(pred):
    """The dicts a compiled predicate closes over, directly or through the
    functions it closes over."""
    memos, seen, todo = [], set(), [pred]
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, dict):
                memos.append(value)
            elif callable(value) and hasattr(value, "__closure__"):
                todo.append(value)
    return memos


def test_bounded_caches_stay_exact(monkeypatch):
    """With a 2-set compile cache and an 8-point reachability memo, answers
    stay exact and no memo holds more than 8 points."""
    assert intgeom.submonoid_2d.cache_info().maxsize == intgeom.MAX_SUBMONOIDS
    compiled = []
    build = intgeom.submonoid_2d.__wrapped__

    def recording(gens):
        compiled.append(build(gens))
        return compiled[-1]

    monkeypatch.setattr(intgeom, "MAX_REACH_MEMO", 8)
    monkeypatch.setattr(intgeom, "submonoid_2d", lru_cache(maxsize=2)(recording))
    cases = [((1, 2), (2, 1)), ((2, 0), (0, 2), (1, 1)), ((1, 1), (1, -1)),
             ((1, 0), (0, 1), (0, -1)), ((2, -1), (-1, 2), (-1, -1))]
    rnd = random.Random(0)
    try:
        for _ in range(2):
            monoid_contains.cache_clear()
            for gens in cases:
                reach = reachable_2d(gens, 12)
                for x in rnd.sample(BOX4, len(BOX4)):
                    assert monoid_contains(gens, x) == (x in reach), (gens, x)
                    assert all(len(m) <= 8 for p in compiled
                               for m in reach_memos(p))
        # each set went out of the 2-set cache and was compiled again
        assert len(compiled) == 2 * len(cases)
        assert any(reach_memos(p) for p in compiled)
    finally:
        monoid_contains.cache_clear()


def test_cone_shapes():
    """Each shape of planar cone has its full face list, in the order that
    `enumerate_primes` names primes in: it keeps the first of two equal
    primes."""
    F = frozenset
    shapes = {
        # sectors: the cone, the two extreme rays, the origin
        ((1, 0), (0, 1)): [F({(1, 0), (0, 1)}), F({(1, 0)}), F({(0, 1)}), F()],
        ((1, 0), (0, 1), (-1, 1)): [F({(1, 0), (0, 1), (-1, 1)}), F({(1, 0)}),
                                    F({(-1, 1)}), F()],
        # a half plane and its boundary line
        ((1, 0), (-1, 0), (0, 1)): [F({(1, 0), (-1, 0), (0, 1)}),
                                    F({(1, 0), (-1, 0)})],
        # a line and the plane are their only face
        ((1, 0), (-1, 0)): [F({(1, 0), (-1, 0)})],
        ((1, 2), (2, 1), (-1, -1)): [F({(1, 2), (2, 1), (-1, -1)})],
        # a ray and the origin
        ((2, 1),): [F({(2, 1)}), F()],
    }
    for gens, faces in shapes.items():
        assert faces_2d(gens) == faces, gens
        assert faces_2d([list(g) for g in gens]) == faces, gens


def test_faces_of_quadrant():
    faces = faces_2d(((1, 0), (0, 1)))
    as_sets = {frozenset(f) for f in faces}
    assert as_sets == {
        frozenset({(1, 0), (0, 1)}),
        frozenset({(1, 0)}),
        frozenset({(0, 1)}),
        frozenset(),
    }


def test_faces_of_halfplane():
    faces = faces_2d(((1, 0), (-1, 0), (0, 1)))
    assert len(faces) == 2  # the whole cone and its boundary line face
    assert frozenset({(1, 0), (-1, 0)}) in {frozenset(f) for f in faces}
