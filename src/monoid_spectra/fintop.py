"""Finite topological spaces built from subbases: the T0 test,
specialization posets, the homeomorphism test of a given map, and DOT
emission.  On a finite carrier sober and spectral are each equivalent to T0.

Every question is read from the points' subbasis profiles; no open set is
ever materialized."""

from __future__ import annotations


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

    # -- separation and order ------------------------------------------------

    def is_t0(self) -> bool:
        """Distinguishability by opens equals distinguishability by subbasis
        members, so no materialization is needed."""
        return len(set(self.profiles)) == self.n

    def leq(self, x, y) -> bool:
        """Specialization: x <= y iff y lies in the closure of {x}, i.e. every
        subbasis open containing y contains x."""
        return not self.profiles[y] & ~self.profiles[x]

    def specialization_poset(self):
        """Relation matrix of the closure order (a preorder; a poset iff T0)."""
        return [[self.leq(x, y) for y in range(self.n)] for x in range(self.n)]

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
