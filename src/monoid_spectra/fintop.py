"""Finite topological spaces given by their points' profiles: the T0 test,
specialization posets, the homeomorphism test of a given map, and DOT
emission.  On a finite carrier sober and spectral are each equivalent to T0.

Every question is read from the profiles; no open set is ever
materialized."""

from __future__ import annotations


class FiniteSpace:
    """A finite point set with a subbasis of opens, given as each point's
    profile: an int with one bit per subbasis open, set when the point lies
    in it.  Any injective layout of the opens' bits gives the same space;
    separation and the specialization order are read from the profiles."""

    def __init__(self, labels, profiles):
        self.labels = list(labels)
        self.profiles = list(profiles)
        self.n = len(self.labels)
        if len(self.profiles) != self.n or any(p < 0 for p in self.profiles):
            raise ValueError("one nonnegative profile per point")

    # -- separation and order ------------------------------------------------

    def is_t0(self) -> bool:
        """Distinguishability by opens equals distinguishability by subbasis
        members, so no materialization is needed."""
        return len(set(self.profiles)) == self.n

    def leq(self, x, y) -> bool:
        """Specialization: x <= y iff y lies in the closure of {x}, i.e. every
        subbasis open containing y contains x."""
        return not self.profiles[y] & ~self.profiles[x]

    def __repr__(self):
        return f"FiniteSpace(n={self.n})"


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
    """Cover relations of the specialization order: the pairs (x, y),
    x != y, with x <= y and no third point z with x <= z <= y, in order.

    The order is read as int rows.  The points are ranked by decreasing
    profile size, so a point strictly below another comes first, each
    subbasis open is read as a row of ranks by transposing the profiles
    once, and up(x), the points y with x <= y, is the AND of the
    complements of the opens that miss x.  The covers of x are then the
    minimal bits of up(x) minus x: the lowest-ranked bit left is one, and
    it takes its own up set out of what is left.  On a space that is not
    T0 a minimal bit with an equal point among the candidates covers
    nothing, as the equal point sits between."""
    n, profiles = space.n, space.profiles
    rank = sorted(range(n), key=lambda i: -profiles[i].bit_count())
    at = [0] * n
    opens = [0] * max(profiles, default=0).bit_length()
    for r, i in enumerate(rank):
        at[i] = r
        p = profiles[i]
        while p:
            low = p & -p
            opens[low.bit_length() - 1] |= 1 << r
            p ^= low
    everything = (1 << n) - 1
    ups, equal = {}, {}
    for r, i in enumerate(rank):
        p = profiles[i]
        equal[p] = equal.get(p, 0) | 1 << r
        if p not in ups:
            missed = 0
            for k, o in enumerate(opens):
                if not p >> k & 1:
                    missed |= o
            ups[p] = everything & ~missed
    edges = []
    for x in range(n):
        left = cands = ups[profiles[x]] & ~(1 << at[x])
        while left:
            low = left & -left
            y = rank[low.bit_length() - 1]
            if equal[profiles[y]] & cands == low:
                edges.append((x, y))
            left &= ~ups[profiles[y]]
    edges.sort()
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
