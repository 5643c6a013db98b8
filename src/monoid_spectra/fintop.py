"""Finite topological spaces built from subbases: the T0 test,
specialization posets, the homeomorphism test of a given map with a
brute-force oracle, and DOT emission.  On a finite carrier sober and
spectral are each equivalent to T0 (``sober_bruteforce`` checks the
definition literally).

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


def homeomorphic(X: FiniteSpace, Y: FiniteSpace, f):
    """Why the map sending point i of X to point f[i] of Y is not a
    homeomorphism, or None when it is.  A finite topology is fixed by its
    specialization preorder (Alexandrov), so f is one exactly when it is a
    bijection and X.leq(i, j) == Y.leq(f[i], f[j]) for all i, j.  The
    witness is the first repeated image, else the first point of Y missed,
    else the first pair (i, j) whose order f does not keep."""
    seen = set()
    for j in f:
        if j in seen:
            return {"repeated": Y.labels[j]}
        seen.add(j)
    missed = next((j for j in range(Y.n) if j not in seen), None)
    if missed is not None:
        return {"missing": Y.labels[missed]}
    pair = next(((i, j) for i in range(X.n) for j in range(X.n)
                 if X.leq(i, j) != Y.leq(f[i], f[j])), None)
    return None if pair is None else {
        "pair": f"{X.labels[pair[0]]},{X.labels[pair[1]]}"}


def brute_force_homeomorphic(X: FiniteSpace, Y: FiniteSpace, f) -> bool:
    """Independent oracle: f is a bijection that carries the opens of X
    onto the opens of Y."""
    if sorted(f) != list(range(Y.n)):
        return False
    images = {Y._mask(f[i] for i in X._unmask(o)) for o in X.opens()}
    return images == Y.opens()


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


def bipartite_dot(left_labels, right_labels, edges, left_edges, right_edges,
                  name) -> str:
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
