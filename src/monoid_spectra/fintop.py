"""Finite topological spaces built from subbases: the T0 test,
specialization posets, homeomorphism with a brute-force oracle, and DOT
emission.  On a finite carrier sober and spectral are each equivalent to T0
(``sober_bruteforce`` checks the definition literally).

Point sets are small by design; opens are materialized as bitmasks with a
carrier guard of 20 points."""

from __future__ import annotations

import itertools

CARRIER_GUARD = 20


class FiniteSpace:
    """A finite point set with a subbasis of opens (stored as index sets).

    Each point's profile, the int with bit k set when the point lies in
    subbasis open k, is computed once; separation and the specialization
    order are read from the profiles."""

    def __init__(self, labels, subbasis):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.subbasis = [frozenset(s) for s in subbasis]
        self.profiles = [0] * self.n
        for k, s in enumerate(self.subbasis):
            if any(not 0 <= i < self.n for i in s):
                raise ValueError("subbasis set outside the point set")
            for i in s:
                self.profiles[i] |= 1 << k
        self._opens = None

    # -- masks --------------------------------------------------------------

    def _mask(self, s) -> int:
        m = 0
        for i in s:
            m |= 1 << i
        return m

    def _unmask(self, m) -> frozenset:
        return frozenset(i for i in range(self.n) if m >> i & 1)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def opens(self) -> set[int]:
        """All open sets (bitmasks): closure of the subbasis under finite
        intersection and arbitrary union, with the empty and full sets."""
        if self._opens is not None:
            return self._opens
        if self.n > CARRIER_GUARD:
            raise ValueError(f"carrier too large to materialize (> {CARRIER_GUARD})")
        basis = {self.full_mask}
        basis.update(self._mask(s) for s in self.subbasis)
        # close under pairwise intersection
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(basis), 2):
                c = a & b
                if c not in basis:
                    basis.add(c)
                    changed = True
        # close under pairwise union
        opens = set(basis)
        opens.add(0)
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(opens), 2):
                c = a | b
                if c not in opens:
                    opens.add(c)
                    changed = True
        self._opens = opens
        return opens

    def closeds(self) -> set[int]:
        full = self.full_mask
        return {full ^ o for o in self.opens()}

    # -- separation and order ------------------------------------------------

    def is_t0(self) -> bool:
        """Distinguishability by opens equals distinguishability by subbasis
        members, so no materialization is needed."""
        return len(set(self.profiles)) == self.n

    def separating_open(self, x, y):
        """Index of the first subbasis open holding exactly one of x and y,
        or None when their profiles coincide."""
        diff = self.profiles[x] ^ self.profiles[y]
        return (diff & -diff).bit_length() - 1 if diff else None

    def leq(self, x, y) -> bool:
        """Specialization: x <= y iff y lies in the closure of {x}, i.e. every
        subbasis open containing y contains x."""
        return not self.profiles[y] & ~self.profiles[x]

    def specialization_poset(self):
        """Relation matrix of the closure order (a preorder; a poset iff T0)."""
        return [[self.leq(x, y) for y in range(self.n)] for x in range(self.n)]

    def closure_of_point(self, x) -> frozenset:
        return frozenset(y for y in range(self.n) if self.leq(x, y))

    def sober_bruteforce(self) -> bool:
        """Soberness by its definition: every irreducible closed set has
        exactly one generic point, over all materialized closed sets.  The
        oracle for reading sober from T0; intended for small carriers."""
        closeds = self.closeds()
        for c in closeds:
            pts = self._unmask(c)
            if not pts:
                continue
            proper = [d for d in closeds if d & c == d and d != c]
            irreducible = True
            for a, b in itertools.combinations_with_replacement(proper, 2):
                if a | b == c:
                    irreducible = False
                    break
            if not irreducible:
                continue
            generics = [x for x in pts if self._mask(self.closure_of_point(x)) == c]
            if len(generics) != 1:
                return False
        return True

    def __repr__(self):
        return f"FiniteSpace(n={self.n}, subbasis={len(self.subbasis)})"


def subbasis_space(labels, points, opens, inside) -> FiniteSpace:
    """The space on `points` whose k-th subbasis open is the set of points p
    with inside(p, opens[k]); each membership is evaluated once."""
    return FiniteSpace(labels, [frozenset(i for i, p in enumerate(points)
                                          if inside(p, o)) for o in opens])


def poset_isomorphism(X: FiniteSpace, Y: FiniteSpace):
    """An order isomorphism of the specialization posets, or None.  Finite T0
    spaces are determined by these posets, so this decides homeomorphism."""
    if X.n != Y.n:
        return None
    lx = X.specialization_poset()
    ly = Y.specialization_poset()

    def degrees(rel, i):
        below = sum(1 for j in range(len(rel)) if rel[j][i])
        above = sum(1 for j in range(len(rel)) if rel[i][j])
        return (below, above)

    dx = [degrees(lx, i) for i in range(X.n)]
    dy = [degrees(ly, i) for i in range(Y.n)]
    if sorted(dx) != sorted(dy):
        return None
    candidates = [[j for j in range(Y.n) if dy[j] == dx[i]] for i in range(X.n)]

    assignment = [None] * X.n
    used = [False] * Y.n

    def backtrack(i):
        if i == X.n:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if lx[i][k] != ly[j][assignment[k]] or lx[k][i] != ly[assignment[k]][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
                assignment[i] = None
        return False

    if backtrack(0):
        return list(assignment)
    return None


def homeomorphic(X: FiniteSpace, Y: FiniteSpace):
    """Homeomorphism verdict with witness map for finite T0 spaces."""
    if not (X.is_t0() and Y.is_t0()):
        raise ValueError("homeomorphism check requires T0 inputs")
    return poset_isomorphism(X, Y)


def brute_force_homeomorphic(X: FiniteSpace, Y: FiniteSpace):
    """Independent oracle: search all bijections for one that is continuous
    and open in both directions."""
    if X.n != Y.n:
        return None
    ox = X.opens()
    oy = Y.opens()
    if len(ox) != len(oy):
        return None
    for perm in itertools.permutations(range(Y.n)):
        fwd = {frozenset(perm[i] for i in X._unmask(o)) for o in ox}
        if all(Y._mask(s) in oy for s in fwd) and len(fwd) == len(oy):
            return list(perm)
    return None


def all_topologies(n: int):
    """Every topology on n points, generated from all possible subbases.
    Intended for n <= 3 (exhaustive cross-validation)."""
    universe = list(range(n))
    all_subsets = [frozenset(c) for r in range(n + 1)
                   for c in itertools.combinations(universe, r)]
    seen = set()
    spaces = []
    for r in range(len(all_subsets) + 1):
        for sub in itertools.combinations(all_subsets, r):
            space = FiniteSpace([str(i) for i in universe], sub)
            key = frozenset(space.opens())
            if key not in seen:
                seen.add(key)
                spaces.append(space)
    return spaces


# -- DOT emission -------------------------------------------------------------

def hasse_edges(space: FiniteSpace):
    """Cover relations of the specialization order (assumes T0)."""
    rel = space.specialization_poset()
    n = space.n
    edges = []
    for x in range(n):
        for y in range(n):
            if x == y or not rel[x][y]:
                continue
            if any(rel[x][z] and rel[z][y] and z not in (x, y) for z in range(n)):
                continue
            edges.append((x, y))
    return edges


def poset_dot(space: FiniteSpace, name="poset") -> str:
    lines = [f"digraph {name} {{"]
    for i, lab in enumerate(space.labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for x, y in sorted(hasse_edges(space)):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bipartite_dot(left_labels, right_labels, edges, left_edges=(), right_edges=(),
                  name="correspondence") -> str:
    """Bipartite digraph (e.g. the domination correspondence) with
    specialization edges inside each side."""
    lines = [f"digraph {name} {{"]
    for i, lab in enumerate(left_labels):
        lines.append(f'  l{i} [label="{lab}"];')
    for i, lab in enumerate(right_labels):
        lines.append(f'  r{i} [label="{lab}"];')
    for a, b in sorted(edges):
        lines.append(f"  l{a} -> r{b};")
    for a, b in sorted(left_edges):
        lines.append(f"  l{a} -> l{b} [style=dashed];")
    for a, b in sorted(right_edges):
        lines.append(f"  r{a} -> r{b} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
