"""Workload definitions: the monoid descriptions each run feeds the CLI and
the job list that runs on them.

A job is one ``monoid-spectra verify`` call.  Inputs are JSON descriptions
keyed by a short name; the runner writes them to files, so the program only
ever sees generated input files.  Everything here is a pure function of the
workload name and the seed.
"""

from __future__ import annotations

import random

# Per-job timeout.  No legitimate job comes near it; it only stops a hang.
JOB_TIMEOUT_S = 30.0
# The over-the-wall probe in numerical-enum gets a short budget instead: it
# records that the job does not finish, and its timeout is a fixed cost of
# every pass.
PROBE_TIMEOUT_S = 1.5

# Suites each realization supports (exit 3 on any other pair is expected and
# never generated).
SUPPORTED = {
    "numerical": ("axioms", "spec", "ideals", "zar", "pruefer", "pronconst",
                  "main1", "main2", "prop1", "prop2", "corollaries"),
    "affine": ("axioms", "spec", "zar", "pruefer", "main1", "main2", "prop1",
               "prop2", "corollaries"),
    "finite": ("axioms", "spec", "ideals", "pronconst", "main1", "main2",
               "prop1", "prop2", "corollaries"),
}


def numerical(*gens):
    return {"kind": "numerical", "generators": list(gens)}


def affine(*gens):
    return {"kind": "affine", "dim": len(gens[0]),
            "generators": [list(g) for g in gens]}


def job(suite, inp, *, bound=None, family=None, timeout_s=JOB_TIMEOUT_S):
    return {"suite": suite, "input": inp, "family": family, "bound": bound,
            "timeout_s": timeout_s}


# The affine inputs of tests/data, embedded so that the benchmark does not
# move when test data changes.
N2 = affine((1, 0), (0, 1))
NXZ = affine((1, 0), (0, 1), (0, -1))
ADJOIN_RAY = {"family": "adjoin-ray", "base": N2, "ray": [-1, 1],
              "scale": "k"}


def affine_modsys(seed):
    """Lattice carriers at the default bound.  Left out to fit a run: main1
    (17-30 s per input), corollaries (10-12 s per input) and axioms on nxz
    (5.6 s)."""
    inputs = {"n2": N2, "nxz": NXZ}
    jobs = [job("axioms", "n2")]
    jobs += [job(s, i) for s in ("prop2", "pruefer") for i in ("n2", "nxz")]
    jobs.append(job("main2", "n2", family="adjoin-ray"))
    jobs.append(job("main2", "nxz"))
    return {"inputs": inputs, "families": {"adjoin-ray": ADJOIN_RAY},
            "jobs": jobs, "cli_seed": seed}


def numerical_enum(seed):
    """Numerical enumerators at the default bound, plus the over-the-wall
    probe.  Left out to fit a run: ideals on <4,6,9>, ideals/pronconst on
    <5,7,9> and <6,7,8,9,10> (3-10 s each) and prop1 on <8,11,13> (8 s,
    2^20 masks)."""
    inputs = {"n469": numerical(4, 6, 9), "n579": numerical(5, 7, 9),
              "n7_11_13": numerical(7, 11, 13)}
    jobs = [job("pronconst", "n469"), job("main1", "n579"),
            job("prop1", "n7_11_13"),
            job("ideals", "n7_11_13", timeout_s=PROBE_TIMEOUT_S)]
    return {"inputs": inputs, "families": {}, "jobs": jobs, "cli_seed": seed}


# -- sweep ------------------------------------------------------------------

SWEEP_AFFINE = 20
SWEEP_FINITE = 21
MAX_FROBENIUS = 8

# Cheap suites per realization, each with the bounds it is run at: None is
# the CLI default, a tuple is cycled through.  Left out: axioms on affine
# inputs (10-15 s for one that generates a group) and main1 on numerical
# inputs (its cost grows with the number of oversemigroups), which
# affine-modsys and numerical-enum run; and main2/prop2 on affine inputs,
# whose cost varies 0.1-0.8 s with the generators and would make the
# run's cost depend on the seed.
SWEEP_SUITES = {
    "numerical": [("zar", None), ("prop1", None), ("prop2", None),
                  ("main2", None), ("corollaries", None),
                  ("pruefer", (1, 2, 3, 4, 5)), ("axioms", (1, 2, 3, 4, 5)),
                  ("ideals", (1, 2, 3, 4, 5))],
    "affine": [("prop1", None), ("zar", (1, 2)), ("pruefer", (1, 2))],
    "finite": [("axioms", None), ("ideals", None), ("pronconst", None),
               ("main1", None), ("main2", None), ("prop1", None),
               ("prop2", None), ("corollaries", None)],
}
JOBS_PER_MONOID = 2


def numerical_semigroups(max_frobenius):
    """Minimal generators of every numerical semigroup whose Frobenius
    number is at most `max_frobenius` (N included), in a fixed order."""
    out = []
    top = max_frobenius
    for mask in range(1 << top):
        # bit k-1 set: k is in the semigroup; everything above top is in
        elems = [k for k in range(1, top + 1) if mask >> (k - 1) & 1]
        members = set(elems)
        if any(a + b <= top and a + b not in members
               for a in elems for b in elems):
            continue
        members.update(range(top + 1, 2 * top + 2))
        gens = [n for n in sorted(members)
                if not any(n - a in members for a in members if a < n)]
        out.append(gens)
    return out


def _affine(rng):
    while True:
        gens = {(rng.randint(-1, 2), rng.randint(-1, 2))
                for _ in range(rng.randint(2, 4))}
        gens.discard((0, 0))
        gens = sorted(gens)
        rank2 = any(a[0] * b[1] - a[1] * b[0] != 0
                    for a in gens for b in gens)
        if rank2:
            return gens


# The symmetries of the square, as maps of (x, y): they fix the box window
# [-bound, bound]^2 that the affine enumerations use, so they preserve what a
# job computes, up to the order of the window.
SQUARE_SYMMETRIES = [
    lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
    lambda x, y: (y, -x), lambda x, y: (y, x), lambda x, y: (-x, y),
    lambda x, y: (x, -y), lambda x, y: (-y, -x)]


def affine_pool(count):
    """A fixed list of `count` distinct generator sets: 2-4 generators in
    [-1, 2]^2 spanning a rank-2 lattice.  Fixed, not drawn per seed, because
    the cost and the outcomes of a job vary a lot with the generators."""
    rng = random.Random(0)
    pool, seen = [], set()
    while len(pool) < count:
        gens = _affine(rng)
        # distinct up to the symmetries below, so that every seed's images
        # are distinct too
        shape = min(tuple(sorted(sym(*g) for g in gens))
                    for sym in SQUARE_SYMMETRIES)
        if shape not in seen:
            seen.add(shape)
            pool.append(gens)
    return pool


def symmetric_image(gens, rng):
    """`gens` under a seeded symmetry of the square, in a seeded order."""
    sym = rng.choice(SQUARE_SYMMETRIES)
    image = [sym(*g) for g in gens]
    rng.shuffle(image)
    return affine(*image)


def cyclic_product(orders):
    """Cayley table of Z/a x Z/b x ... with an absorbing zero adjoined; the
    identity is index 0 and the zero the last index."""
    elems = [()]
    for n in orders:
        elems = [e + (k,) for e in elems for k in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    zero = len(elems)
    table = [[zero] * (zero + 1) for _ in range(zero + 1)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i][j] = index[tuple((x + y) % n
                                      for x, y, n in zip(a, b, orders))]
    return table, 0, zero


# Z/n + 0 and products; sweep cycles through these in a seeded order
FINITE_ORDERS = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3)]


def relabelled(orders, rng):
    """The table of `orders` under a seeded relabelling of its elements, so
    that each draw is a distinct input."""
    table, one, zero = cyclic_product(orders)
    size = len(table)
    perm = list(range(size))
    rng.shuffle(perm)
    out = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return {"kind": "finite", "size": size, "table": out,
            "one": perm[one], "zero": perm[zero]}


def sweep(seed):
    """A seeded stream of distinct small monoids from all three realizations,
    each through spec (construction and per-job fixed cost) and
    JOBS_PER_MONOID more cheap suites.  The seed moves the affine monoids
    by symmetries of the square, relabels the finite tables and orders the
    jobs.  The mix is stratified so that the cost of a run depends little on
    the seed, and its verdicts not at all: every numerical semigroup with
    small Frobenius number takes part, the affine monoids are images of a
    fixed pool, the finite monoids cycle through fixed types, and the suites
    of a realization cycle over its monoids (each suite cycling through its
    bounds)."""
    rng = random.Random(seed)
    seen = set()

    def fresh(draw):
        while True:
            desc = draw()
            if repr(desc) not in seen:
                seen.add(repr(desc))
                return desc

    monoids = {
        "numerical": [numerical(*g)
                      for g in numerical_semigroups(MAX_FROBENIUS)],
        "affine": [symmetric_image(gens, rng)
                   for gens in affine_pool(SWEEP_AFFINE)],
        "finite": [fresh(lambda i=i: relabelled(
            FINITE_ORDERS[i % len(FINITE_ORDERS)], rng))
            for i in range(SWEEP_FINITE)]}
    inputs, jobs = {}, []
    for kind, descs in monoids.items():
        suites = SWEEP_SUITES[kind]
        uses = {name: 0 for name, _ in suites}
        for i, desc in enumerate(descs):
            key = f"{kind[0]}{i}"
            inputs[key] = desc
            jobs.append(job("spec", key))
            for k in range(JOBS_PER_MONOID):
                suite, bounds = suites[(i * JOBS_PER_MONOID + k) % len(suites)]
                bound = bounds[uses[suite] % len(bounds)] if bounds else None
                uses[suite] += 1
                jobs.append(job(suite, key, bound=bound))
    rng.shuffle(jobs)
    return {"inputs": inputs, "families": {}, "jobs": jobs, "cli_seed": seed}


# Nominal time of one pass of each workload, as measured on the machine the
# benchmark was written on.  A run makes seconds / PASS_S passes, so the
# number of jobs it attempts depends only on --seconds, never on how fast the
# machine happens to be.
PASS_S = {"affine-modsys": 10.0, "numerical-enum": 14.0, "sweep": 8.0}


def passes(workload, seconds):
    """How many passes a run of `seconds` makes."""
    return max(1, int(seconds / PASS_S[workload]))


WORKLOADS = {"affine-modsys": affine_modsys,
             "numerical-enum": numerical_enum,
             "sweep": sweep}


def plan(workload, seed):
    """The inputs and job list of one workload for one seed."""
    return WORKLOADS[workload](seed)


def input_kind(plan_, jb):
    return plan_["inputs"][jb["input"]]["kind"]
