"""Monoids with an absorbing zero, their quotient groupoids, overmonoids,
adjunction, localization and fraction predicates.

Each realization has its own carrier for the quotient groupoid G:
``IntCarrier`` for numerical monoids, ``LatticeCarrier`` for affine ones and
``FiniteCarrier`` for finite Cayley tables.  The library speaks
multiplicatively (op, one, zero) even though the numerical and affine
realizations are additive underneath: identity maps to 0 / the zero vector
and the absorbing zero maps to INF.
"""

from __future__ import annotations

import itertools
import json
import operator
from math import gcd

from . import intgeom
from .errors import UnsupportedRealization, WindowTooLarge
from .layout import Box, Table
from .numsgp import cached_semigroup, ideal_antichains, oversemigroups

# Most points a window may hold: a larger bound is refused, before any point
# is built
MAX_WINDOW = 1 << 12


class _Inf:
    """The absorbing zero adjoined to the additive carriers."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Inf()


class CarrierMismatch(ValueError):
    pass


class ParseError(Exception):
    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field '{field}'")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


def is_int(x) -> bool:
    """The integer test of every boundary: bool is not an integer here."""
    return isinstance(x, int) and not isinstance(x, bool)


def sort_key(g):
    """Deterministic ordering: lexicographic on coordinates, INF last."""
    if g is INF:
        return (1,)
    if isinstance(g, tuple):
        return (0,) + g
    return (0, g)


class GroupoidContext:
    """Carrier of the quotient groupoid G: a group with absorbing zero.

    Each subclass is one realization, and answers what a suite asks of it:
    ``default_bound``, ``overmonoids``, ``ideal_generators`` and ``zar``.
    ``contains`` is the validating membership test; ``op`` and ``inv``
    trust their arguments, which are validated where they enter: parsing,
    the carrier, the ``Monoid`` constructor, ``adjoin``, ``fraction_ideal``
    and the closures of ``modsys``/``idealsys``."""

    one = 0
    zero = INF
    # a window of bound b holds up to (2b + 1)^dim points
    dim = 1
    # a carrier read in boxes defines _xy(g), the cell (x, y) of a point,
    # and cell_basis, the echelon basis of its points' cells
    default_bound = 10  # the bound a suite runs at when none is given

    def contains(self, g) -> bool:
        raise NotImplementedError

    def op(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def window(self, bound: int) -> list:
        """Deterministic finite slice of the carrier used for enumeration;
        membership queries stay exact, only enumerations are windowed.  A
        bound whose box passes MAX_WINDOW points raises WindowTooLarge."""
        if (2 * bound + 1) ** self.dim > MAX_WINDOW:
            raise WindowTooLarge(
                f"the window of bound {bound} passes {MAX_WINDOW} points")
        return self._window(bound)

    def _window(self, bound: int) -> list:
        raise NotImplementedError

    def nonzero_window(self, bound: int) -> list:
        """The window without the absorbing zero."""
        return [g for g in self.window(bound) if g != self.zero]

    def submonoid(self, gens):
        """Exact membership predicate of the submonoid generated by `gens`,
        for nonzero elements already known to lie in the carrier."""
        raise NotImplementedError

    def box(self, points):
        """The bit layout a window reads `points` in: the smallest ``Box``
        around those other than INF, the identity's cell for none."""
        cells = [self._xy(g) for g in points if g is not INF]
        return Box(self, 0, 0, 1, 1).spread(cells or [(0, 0)])

    def comb(self, box):
        """The cells of `box` that are carrier points, as a mask."""
        return intgeom.lattice_span(self.cell_basis, box)

    def span(self, S, box):
        """The members on `box` of S, the submonoid its generators generate,
        by ``intgeom.submonoid_span`` on their cells, asking no cell."""
        return intgeom.submonoid_span(
            tuple(self._xy(g) for g in S.gens if g is not INF), box)

    def faces(self, gens):
        """The generators on each face of their cone, read at their cells."""
        xy = self._xy
        return [frozenset(g for g in gens if xy(g) in face)
                for face in intgeom.faces_2d(map(xy, gens))]

    def check(self, g):
        if not self.contains(g):
            raise CarrierMismatch(f"{g!r} is not in this carrier")

    def overmonoids(self, H):
        """H and its localizations H_P at its primes (``localize``), all
        distinct, each kept when H misses one of the generators it adds,
        so H_P != H."""
        from .idealsys import enumerate_primes  # which builds on this module
        out = [as_overmonoid(H)]
        for P in enumerate_primes(H):
            L = localize(H, P, name=f"H_{P.name}")
            if not all(map(H.has, L.gens[len(H.generators):])):
                out.append(L)
        return out

    def ideal_generators(self, H, bound):
        """H's s-ideals with minimum <= bound as generator tuples."""
        raise UnsupportedRealization(
            "ideal enumeration needs numerical or finite kind")

    def zar(self, read):
        """Zar(G|H): the valuation overmonoids holding the read's H."""
        raise UnsupportedRealization(
            "valuation enumeration supports numerical and affine d=2 monoids")


class IntCarrier(GroupoidContext):
    """Z plus INF, the groupoid of a numerical monoid."""

    cell_basis = [(1, [0, 1])]  # the row x = 0

    def contains(self, g) -> bool:
        return g is INF or is_int(g)

    def op(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def inv(self, a):
        if a is INF:
            raise ValueError("the absorbing zero has no inverse")
        return -a

    def _window(self, bound: int) -> list:
        return list(range(-bound, bound + 1)) + [INF]

    def submonoid(self, gens):
        return intgeom.submonoid_1d([g for g in gens if g is not INF])

    def _xy(self, g):
        return 0, g

    def overmonoids(self, H):
        """R(G|H): every oversemigroup of H, each read on an int box from
        its gap mask (``sgp``), then Z."""
        out = []
        for sgp in oversemigroups(H.sgp):
            gens = sgp.minimal_generators()
            S = Overmonoid(self, gens=gens, rule=sgp.contains,
                           name="<" + ",".join(map(str, gens)) + ">")
            S.sgp = sgp
            out.append(S)
        out.append(Overmonoid(self, gens=(1, -1), name="Z"))
        return out

    def ideal_generators(self, H, bound):
        """{0}, H, then ``numsgp.ideal_antichains`` as asked for; refused as
        the window of bound + F(H), the walk's reach, is."""
        self.window(bound + max(H.sgp.frobenius, 0))
        return itertools.chain([(), (self.one,)],
                               ideal_antichains(H.sgp, bound))

    def zar(self, read):
        """V(N) and V(Z), the trivial valuation; no window is read."""
        return [Overmonoid(self, gens=(1,), name="V(N)"),
                Overmonoid(self, gens=(1, -1), name="V(Z)")]


class LatticeCarrier(GroupoidContext):
    """The sublattice of Z^dim spanned by `vectors` (kept as an echelon
    basis), plus INF, for dim <= 2: a larger dimension is refused here,
    where it enters.  Membership is the HNF test on the basis, asked after
    the structural one."""

    default_bound = 4

    def __init__(self, dim, vectors):
        vectors = [tuple(v) for v in vectors]
        if not is_int(dim) or dim < 1:
            raise ValueError("lattice dimension must be a positive integer")
        if any(len(v) != dim or not all(map(is_int, v)) for v in vectors):
            raise ValueError(f"expected integer vectors of length {dim}")
        if dim > 2:
            raise UnsupportedRealization(
                "affine monoids are implemented for dimension <= 2")
        self.dim = dim
        self.basis = intgeom.hnf_rows(vectors)
        self.one = (0,) * dim
        # a line's points sit on the row x = 0
        self.cell_basis = self.basis if dim == 2 else [
            (1, [0, *row]) for _, row in self.basis]

    def contains(self, g) -> bool:
        if g is INF:
            return True
        # the structural test comes first: the HNF test reads True as 1
        return (isinstance(g, tuple) and len(g) == self.dim
                and all(map(is_int, g))
                and intgeom.lattice_contains(self.basis, g))

    def op(self, a, b):
        if a is INF or b is INF:
            return INF
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        if a is INF:
            raise ValueError("the absorbing zero has no inverse")
        return tuple(map(operator.neg, a))

    def _window(self, bound: int) -> list:
        # the box's points from one comb, in ascending bit order (x, then
        # y); a line's point (y,) sits at the cell (0, y)
        box = self.box([(-bound,) * self.dim, (bound,) * self.dim])
        comb, cols = self.comb(box), box.cols
        cells = (divmod(k, cols) for k in range(box.rows * cols)
                 if comb >> k & 1)
        return [(box.x0 + i, box.y0 + j)[2 - self.dim:]
                for i, j in cells] + [INF]

    def submonoid(self, gens):
        gens = tuple(g for g in gens if g is not INF)
        return lambda g: intgeom.monoid_contains(gens, g)

    def _xy(self, g):
        return (0, g[0]) if self.dim == 1 else g

    def zar(self, read):
        """On the plane, V(w, t) for each candidate (w, t) that holds H's
        generators (``valuation.holds``), then G, the trivial valuation,
        one per window mask (each holds INF, so its mask is its profile);
        irrational rays are left out."""
        if self.dim != 2:
            return super().zar(read)
        from .valuation import CANDIDATES, ValuationDescriptor, holds
        units = [tuple(s * c for c in row) for _, row in self.basis
                 for s in (1, -1)]
        cands = [ValuationDescriptor(self, w, t) for w, t in CANDIDATES
                 if all(holds(w, t, g) for g in read.H.generators)]
        out, seen = [], set()
        for v in cands + [Overmonoid(self, gens=units, name="V(trivial)")]:
            m = read.window.mask(v)
            if m not in seen:
                seen.add(m)
                out.append(v)
        return out


# Most bits of one pack of a window's slots.  MAX_WINDOW keeps below it
# every layout, laid out on points a window bounds
# (``modsys.separating_masks`` asks the separating generators one by one).
MAX_SPAN_BITS = 1 << 16


class FiniteCarrier(GroupoidContext):
    """A finite commutative cancellative monoid given by its Cayley table;
    off the zero it is a group, so it is its own groupoid."""

    dim = 0  # the window is the whole table, at every bound

    def __init__(self, table, one, zero):
        n = len(table)
        if any(len(row) != n or not all(is_int(v) and 0 <= v < n for v in row)
               for row in table):
            raise ValueError("Cayley table must be square with valid entries")
        if not all(is_int(i) and 0 <= i < n for i in (one, zero)):
            raise ValueError("identity and zero must be element indices")
        if one == zero:
            raise ValueError("identity and zero must differ")
        # (ab)c = a(bc) for every c at once: row ab against a's row read
        # at b's entries; the first c is looked for only when they differ
        rows = [tuple(row) for row in table]
        read_at = [operator.itemgetter(*row) for row in rows]
        for a, row_a in enumerate(rows):
            for b, ab in enumerate(row_a):
                if ab != rows[b][a]:
                    raise ValueError(f"not commutative at ({a},{b})")
                a_bc = read_at[b](row_a)
                if rows[ab] != a_bc:
                    c = next(c for c in range(n) if rows[ab][c] != a_bc[c])
                    raise ValueError(f"not associative at ({a},{b},{c})")
        for a in range(n):
            if table[one][a] != a:
                raise ValueError("declared identity is not neutral")
            if table[zero][a] != zero:
                raise ValueError("declared zero is not absorbing")
            if a != zero and len(set(table[a])) != n:
                raise ValueError(f"not cancellative: row {a} repeats a value")
        self.table = table
        self.one = one
        self.zero = zero
        # a cancellative row is a permutation, so it holds the identity
        self._inv = {a: row.index(one) for a, row in enumerate(table)
                     if a != zero}

    def contains(self, g) -> bool:
        return is_int(g) and 0 <= g < len(self.table)

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        if a == self.zero:
            raise ValueError("the absorbing zero has no inverse")
        return self._inv[a]

    def _window(self, bound: int) -> list:
        return list(range(len(self.table)))

    def span(self, S, box):
        """The members of S on the ``Table`` row: each of the n elements
        asked once (``has``), which costs less than moving the row by each
        generator until it closes."""
        return sum(1 << g for g in range(len(self.table)) if S.has(g))

    def box(self, points):
        """The one ``Table`` row of the whole carrier."""
        return Table(self)

    def faces(self, gens):
        """One face: off the zero the carrier is a group."""
        return [frozenset(gens)]

    def ideal_generators(self, H, bound):
        """() and H's identity: off the zero H is a group."""
        return [(), (self.one,)]

    def submonoid(self, gens):
        closure = {self.one, self.zero, *gens}
        frontier = list(gens)
        while frontier:
            a = frontier.pop()
            for b in list(closure):
                c = self.table[a][b]
                if c not in closure:
                    closure.add(c)
                    frontier.append(c)
        return closure.__contains__


class Overmonoid:
    """Submonoid of G containing H, with exact decidable membership.

    Backed by a generator list (membership derived exactly by the carrier)
    or a closed-form membership rule, only asked about nonzero elements of
    G, or both, the rule then deciding the generators' monoid; the
    predicate is fixed here, once.  The generators are trusted: they come
    from a checked ``Monoid``, ``adjoin`` or the carrier.  ``span_mask``
    reads the members on a ``Box`` or ``Table`` as one int: the carrier's
    ``span``, which asks a box no cell and a table each of its n elements,
    or a subclass's own read, so a set given by a rule alone has no mask
    on a box; no mask is kept: a ``window._Window`` or a ``layout.Read``
    keeps each one it reads while it lives."""
    sgp = None

    def __init__(self, context, gens=None, rule=None, name=""):
        if gens is None and rule is None:
            raise ValueError("an overmonoid needs generators or a rule")
        self.context = context
        self.gens = tuple(gens) if gens is not None else None
        self.name = name
        self._member = rule if rule is not None else context.submonoid(
            self.gens)

    def contains(self, g) -> bool:
        return self.context.contains(g) and self.has(g)

    def has(self, g) -> bool:
        """Membership of an element already known to lie in the carrier."""
        return g is INF or g == self.context.zero or bool(self._member(g))

    def span_mask(self, box):
        """The members on `box`, in its layout: on the row of ``sgp``
        (their NumericalSemigroup) where set, else the carrier's span of
        the generators (``span``)."""
        if self.sgp is not None:  # on the row x = 0
            if not box.x0 <= 0 < box.x0 + box.rows:
                return 0
            return self.sgp.span(box.y0, box.cols) << -box.x0 * box.stride
        return self.context.span(self, box)

    def __repr__(self):
        return f"Overmonoid({self.name or self.gens})"


class Monoid(Overmonoid):
    """One of the three finitely presented realizations of a commutative
    cancellative monoid with identity and absorbing zero: the smallest
    overmonoid of its groupoid.  ``kind`` is the realization's label;
    membership goes through the carrier, which checks its generators."""

    def __init__(self, kind, context, generators, args=None):
        generators = tuple(generators)
        for g in generators:
            context.check(g)
        super().__init__(context, gens=generators)
        self.kind = kind
        self.generators = self.gens
        self._args = repr(self.generators) if args is None else args

    # -- constructors ------------------------------------------------------

    @classmethod
    def numerical(cls, generators):
        H = cls("numerical", IntCarrier(), sorted(set(generators)))
        H.sgp = cached_semigroup(H.generators)
        return H

    @classmethod
    def affine(cls, generators, dim=None):
        gens = tuple(tuple(g) for g in generators)
        if not gens:
            raise ValueError("affine monoid needs at least one generator")
        d = len(gens[0]) if dim is None else dim
        H = cls("affine", LatticeCarrier(d, gens), gens)
        H.dim = d
        return H

    @classmethod
    def finite(cls, table, one, zero):
        n = len(table)
        return cls("finite", FiniteCarrier(table, one, zero), range(n),
                   args=f"(n={n})")

    def op(self, a, b):
        return self.context.op(a, b)

    @property
    def one(self):
        return self.context.one

    @property
    def zero(self):
        return self.context.zero

    def __repr__(self):
        return f"Monoid.{self.kind}{self._args}"


def as_overmonoid(H: Monoid) -> Overmonoid:
    return Overmonoid(H.context, gens=H.generators, name="H")


def adjoin(M: Overmonoid, x) -> Overmonoid:
    """Smallest submonoid of G containing M and x (generator-backed only)."""
    if M.gens is None:
        raise ValueError("adjoin needs a generator-backed overmonoid")
    M.context.check(x)
    if x is INF or x == M.context.zero:
        return M
    return Overmonoid(M.context, gens=M.gens + (x,), name=f"{M.name}[{x}]")


def localize(H: Monoid, P, name="localization") -> Overmonoid:
    """Localization H_P at a prime s-ideal P: invert the generators of H that
    lie outside P.  Every element of H outside P is a product of such
    generators, so this is exact.  By the face lemma of
    ``idealsys.enumerate_primes`` those are the generators P is not
    generated by.  P is improper, and refused, when one of its generators
    is a unit of H: the identity, or a point of H on every face of its
    cone, which P's generators, points of H, leave as it is.  P is asked
    nothing."""
    ctx = H.context
    units = frozenset.intersection(*ctx.faces(
        [g for g in dict.fromkeys((*H.generators, *P.generators))
         if g not in (H.one, ctx.zero)])) | {H.one}
    if any(g in units for g in P.generators):
        raise ValueError("cannot localize at an improper ideal")
    extra = tuple(ctx.inv(g) for g in H.generators
                  if g != ctx.zero and g not in P.generators)
    return Overmonoid(ctx, gens=H.generators + extra, name=name)


def fraction_ideal(H: Monoid, x):
    """The predicate of (H : x) = {h in H : h*x in H}; x must be nonzero."""
    ctx = H.context
    if x is INF or x == ctx.zero:
        raise ValueError("(H : x) is undefined for the absorbing zero")
    ctx.check(x)

    def member(h):
        if h is INF or h == ctx.zero:
            return True
        return H.contains(h) and H.has(ctx.op(h, x))

    return member


class DeltaFamily:
    """A parameterized family k -> S_k of overmonoids.

    The family is decreasing (S_1 >= S_2 >= ...) and carries its limit, the
    overmonoid equal to the intersection of all members; both declarations
    are trusted for evaluation but rechecked pointwise by
    ``modsys.check_family``."""

    def __init__(self, *, member_fn, limit, name="Delta"):
        self.member_fn = member_fn
        self.limit = limit
        self.name = name

    def member(self, k) -> Overmonoid:
        return self.member_fn(k)


# -- JSON description files: monoids and families ---------------------------

def _numerical_from(data):
    gens = data.get("generators")
    if (not isinstance(gens, list) or not gens
            or not all(is_int(g) and g > 0 for g in gens)):
        raise ParseError("expected a nonempty list of positive integers",
                         field="generators")
    if gcd(*gens) != 1:
        raise ParseError("generators must have gcd 1", field="generators")
    return Monoid.numerical(gens)


def _affine_from(data):
    dim = data.get("dim")
    gens = data.get("generators")
    if not is_int(dim) or dim < 1:
        raise ParseError("expected a positive integer", field="dim")
    if (not isinstance(gens, list) or not gens
            or not all(isinstance(g, list) and len(g) == dim
                       and all(map(is_int, g)) for g in gens)):
        raise ParseError(f"expected a list of integer vectors of length {dim}",
                         field="generators")
    return Monoid.affine(gens, dim=dim)


def _finite_from(data):
    size = data.get("size")
    table = data.get("table")
    if not is_int(size) or size < 2:
        raise ParseError("expected an integer >= 2", field="size")
    # the entries are checked once, by the carrier
    if (not isinstance(table, list) or len(table) != size
            or not all(isinstance(r, list) and len(r) == size
                       for r in table)):
        raise ParseError(f"expected a {size}x{size} table of indices",
                         field="table")
    for name in ("one", "zero"):
        if not is_int(data.get(name)) or not 0 <= data[name] < size:
            raise ParseError("expected a valid element index", field=name)
    try:
        return Monoid.finite(table, one=data["one"], zero=data["zero"])
    except ValueError as e:
        raise ParseError(str(e), field="table") from e


_FROM_JSON = {"numerical": _numerical_from, "affine": _affine_from,
              "finite": _finite_from}


def monoid_from_json(text: str) -> Monoid:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _FROM_JSON:
        raise ParseError("kind must be one of numerical|affine|finite",
                         field="kind")
    return _FROM_JSON[kind](data)


def _read_text(path) -> str:
    """A description file's text; one that is not UTF-8 is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e.reason} at byte {e.start}") from e


def monoid_from_file(path) -> Monoid:
    return monoid_from_json(_read_text(path))


def _scaled_ray(ray, k):
    """Index-k generator of an adjoin-ray family: the negative part of the ray
    stays fixed and the positive part is scaled by k."""
    return tuple(c if c < 0 else k * c for c in ray)


def family_from_json(text: str):
    """Parse a family description: {"family": "adjoin-ray", "base": ...,
    "ray": [...], "scale": "k"}.  The base is a monoid object or an
    "affine:x,y;x,y" shorthand.  Returns (base monoid, DeltaFamily)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    if data.get("family") != "adjoin-ray":
        raise ParseError("family must be 'adjoin-ray'", field="family")
    base = data.get("base")
    if isinstance(base, str) and base.startswith("affine:"):
        try:
            H = Monoid.affine([[int(c) for c in v.split(",")]
                               for v in base[7:].split(";")])
        except ValueError as e:
            raise ParseError(f"bad affine shorthand: {e}", field="base") from e
    elif isinstance(base, dict):
        H = monoid_from_json(json.dumps(base))
        if H.kind != "affine":
            raise ParseError("base must be an affine monoid", field="base")
    else:
        raise ParseError("expected a monoid object or affine shorthand",
                         field="base")
    ray = data.get("ray")
    if (not isinstance(ray, list) or len(ray) != H.dim
            or not all(map(is_int, ray))):
        raise ParseError(f"expected an integer vector of length {H.dim}",
                         field="ray")
    if data.get("scale") != "k":
        raise ParseError("scale must be 'k'", field="scale")
    ctx = H.context
    # S_k adds neg + k*pos; two indices in the lattice put every index there
    if not all(ctx.contains(_scaled_ray(ray, k)) for k in (1, 2)):
        raise ParseError("the scaled rays must lie in the base's lattice",
                         field="ray")
    base_over = Overmonoid(ctx, gens=H.generators, name="base")

    def member_fn(k):
        return Overmonoid(ctx, gens=H.generators + (_scaled_ray(ray, k),),
                          name=f"S_{k}")

    delta = DeltaFamily(member_fn=member_fn, limit=base_over,
                        name="adjoin-ray")
    return H, delta


def family_from_file(path):
    return family_from_json(_read_text(path))
