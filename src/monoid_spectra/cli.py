"""Command line verification suites.

Each suite binds a named claim to executable checks over a monoid read from a
JSON description file.  Exit codes: 0 all checks pass, 1 a check failed,
2 input could not be parsed or an output file could not be written, 3 the
realization is unsupported for the suite or the input is past a size guard.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import UnsupportedRealization, WindowTooLarge
from .fintop import first_repeat, homeomorphic, poset_dot
from .idealsys import (IdealRead, check_ideal_axioms, enumerate_ideals,
                       enumerate_primes, s_system, spec_subbasis)
from .modsys import (FAMILY_DEPTH, DeltaFamily, SystemSpace, check_family,
                     check_id2, check_idempotent, check_module_axioms,
                     falsify_finitary, family_from_file, embedding_checks,
                     is_finitary, r_delta, system_window)
from .monoid import MAX_WINDOW, ParseError, monoid_from_file
from .report import INFO, Check, SuiteReport
from .valuation import (WindowRead, delta, delta_dot, delta_laws,
                        enumerate_overmonoids, enumerate_zar, is_s_pruefer,
                        overmonoid_space)


def _t0_check(space, bound):
    # On a finite space the irreducible closed sets are point closures, so
    # sober and spectral are each equivalent to T0.
    t0 = space.is_t0()
    return Check("t0", t0, witness=None if t0 else {"profiles": "coincide"},
                 n=space.n, bound=bound,
                 detail="on a finite space sober and spectral each equal T0")


# -- suites -------------------------------------------------------------------

def suite_axioms(rep, H, bound, seed):
    rep.extend(check_ideal_axioms(s_system(H), H, bound=bound, seed=seed),
               prefix="AXIOM")


def suite_spec(rep, H, bound, seed):
    primes = enumerate_primes(H)
    rep.add(Check("primes-enumerated", INFO, n=len(primes), bound=bound,
                  detail=" ".join(p.name for p in primes)))
    space = spec_subbasis(H, primes)
    rep.add(_t0_check(space, bound))
    return lambda: poset_dot(space, name="spec")


def suite_ideals(rep, H, bound, seed):
    r = s_system(H)
    ideals = enumerate_ideals(H, r, bound)
    rep.add(Check("ideals-enumerated", INFO, n=len(ideals), bound=bound))
    rep.add(Check("ideals-absorb-action", INFO, n=len(ideals), bound=bound,
                  detail="each listed I = XH absorbs H by construction"))
    # the space reads the ideals at their generators alone: no window
    space = IdealRead(ideals, ()).space()
    rep.add(_t0_check(space, bound))
    return lambda: poset_dot(space, name="ideals")


def suite_pronconst(rep, H, bound, seed):
    r = s_system(H)
    ideals = enumerate_ideals(H, r, bound)
    # On a finite T0 space every subset is proconstructible, so the primes
    # are listed, not checked.
    read = IdealRead(ideals, H.context.window(2 * bound))
    flagged = [repr(I) for I, prime in zip(ideals, read.prime_flags())
               if prime]
    rep.add(Check("primes-flagged", INFO, n=len(ideals), bound=2 * bound,
                  detail="flagged: " + "; ".join(flagged)))
    rep.add(_t0_check(read.space(), bound))


def suite_zar(rep, H, bound, seed):
    read = WindowRead(H, bound)
    carrier = enumerate_zar(read)
    rep.add(Check("zar-enumerated", INFO, n=len(carrier), bound=bound,
                  detail=" ".join(V.name for V in carrier)))
    space = overmonoid_space(carrier, read)
    rep.add(_t0_check(space, bound))
    return lambda: poset_dot(space, name="zar")


def suite_pruefer(rep, H, bound, seed):
    primes = enumerate_primes(H)
    read = WindowRead(H, bound)
    carrier = enumerate_zar(read)
    f = [delta(V, primes, read) for V in carrier]
    zar_space = overmonoid_space(carrier, read)
    spec_space = spec_subbasis(H, primes)
    rep.add(Check("delta-total", INFO, n=len(carrier), bound=bound,
                  detail="; ".join(f"{V.name}->{primes[j].name}"
                                   for V, j in zip(carrier, f))))
    witness = next(({"P": P.name} for j, P in enumerate(primes)
                    if j not in f), None)
    rep.add(Check("delta-surjective", witness is None, witness=witness,
                  n=len(primes), bound=bound))
    sp = is_s_pruefer(primes, read)
    rep.extend(delta_laws(primes, f, carrier, sp.ok, read))
    rep.add(Check("s-pruefer-instance", INFO, bound=bound,
                  detail="s-Pruefer" if sp.ok else f"not s-Pruefer at "
                  f"{sp.witness} (homeomorphism not claimed)"))
    if sp.ok:
        # a repeated image is the first witness homeomorphic names, so this
        # line also carries injectivity
        bad = homeomorphic(zar_space, spec_space, f)
        rep.add(Check("delta-homeomorphism", bad is None, witness=bad,
                      n=zar_space.n, bound=bound))
    else:
        pair = first_repeat(f)
        rep.add(Check("delta-injectivity-instance", INFO, n=len(carrier),
                      bound=bound,
                      detail="injective on this carrier" if pair is None else
                      f"not injective: {carrier[pair[0]].name} and "
                      f"{carrier[pair[1]].name} map to "
                      f"{primes[f[pair[0]]].name}"))
    return lambda: delta_dot(f, zar_space, spec_space)


def suite_main1(rep, H, bound, seed):
    ctx = H.context
    overs = enumerate_overmonoids(H)
    space = SystemSpace(H, overs, min(bound, 4))
    systems = space.systems
    for r, checks in zip(systems, check_module_axioms(systems, H,
                                                      bound=bound, seed=seed)):
        for c in checks:
            c.name = f"{r.name}:{c.name}"
        rep.extend(checks, prefix="AXIOM")

    e16 = systems[-1]
    # {1}_r is H with the zero, so its window slice recloses to G: a fact
    # of the construction, recorded, not checked
    proper = any(not H.contains(g) for g in ctx.window(bound))
    rep.add(Check("example16-id2-counterexample", INFO, bound=bound,
                  detail="reclosing the closure of the identity fills G"
                  if proper else "H fills G on the window, so the Id2 gap "
                                 "is vacuous here"))
    if proper:
        c = check_id2(e16, bound=min(bound, 4), sample_budget=80, seed=seed)
        rep.add(Check("example16-id2-fails", not c.ok,
                      witness=None if not c.ok
                      else {"expected": "an Id2 failure"},
                      n=c.n, bound=min(bound, 4)))

    pair = space.t0_witnesses()
    k = len(systems)
    rep.add(Check("system-carrier-t0", pair is None,
                  witness=None if pair is None else
                  {"pair": f"{systems[pair[0]].name},"
                           f"{systems[pair[1]].name}"},
                  n=k * (k - 1) // 2, bound=min(bound, 4)))
    return lambda: poset_dot(space.space(), name="systems")


def suite_main2(rep, H, family, bound, seed):
    ctx = H.context
    overs = enumerate_overmonoids(H)
    rep.add(Check("finite-witness-extraction", INFO, n=len(overs),
                  bound=bound,
                  detail="x in A_r for a finite family: one pick a in A per "
                         "member S with x in aS gives F, x in F_r, "
                         "|F| <= |family|"))
    if family is not None:
        base, delta_fam = family
        fam_ctx = base.context
        rep.extend(check_family(delta_fam, fam_ctx, bound=min(bound, 4)),
                   prefix="FAMILY")
        found = falsify_finitary(delta_fam, fam_ctx, bound=max(bound, 6))
        rep.add(Check("non-finitary-certificate", INFO, bound=FAMILY_DEPTH,
                      detail=f"witness {found}" if found is not None
                      else f"none up to index {FAMILY_DEPTH}"))
    else:
        fin = is_finitary(r_delta(DeltaFamily(overs, name="carrier"), ctx),
                          bound=min(bound, 3), sample_budget=40, seed=seed)
        fin.name = "finite-family-finitary"
        rep.add(fin)


def suite_prop1(rep, H, bound, seed):
    overs = enumerate_overmonoids(H)
    rep.add(embedding_checks(overs, H.context, bound=min(bound, 4)))


def suite_prop2(rep, H, bound, seed):
    overs = enumerate_overmonoids(H)
    rep.add(Check("meet-finite-witness", INFO, n=len(overs), bound=bound,
                  detail="x in A_r for a meet r of finitary systems: the "
                         "union of the per-system witnesses is a finite "
                         "witness"))


def suite_corollaries(rep, H, bound, seed):
    ctx = H.context
    carriers = [("localizations", enumerate_overmonoids(H))]
    try:
        carriers.append(("zar", enumerate_zar(WindowRead(H, bound))))
    except UnsupportedRealization:
        pass
    small = min(bound, 3)
    for label, overs in carriers:
        r = r_delta(DeltaFamily(overs, name=label), ctx)
        # one window for the three checks, each with its own draw
        w = system_window(r, small)
        fin = is_finitary(r, bound=small, sample_budget=40, seed=seed,
                          window=w)
        fin.name = f"{label}:finitary"
        rep.add(fin)
        idem = check_idempotent(r, bound=small, sample_budget=30, seed=seed,
                                window=w)
        idem.name = f"{label}:idempotent"
        rep.add(idem)
        id2 = check_id2(r, bound=small, sample_budget=60, seed=seed, window=w)
        id2.name = f"{label}:Id2"
        rep.add(id2)


# -- entry point ----------------------------------------------------------------

# each suite by name, in the CLI's order: its claim and the suite, which
# fills the report it is given and returns the DOT renderer of a suite that
# draws (None otherwise); main2 also takes the family
SUITES = {
    "axioms": ("the s-system satisfies the closure axioms Id1-Id4",
               suite_axioms),
    "spec": ("prime s-ideals form a T0 (so sober and spectral) finite space",
             suite_spec),
    "ideals": ("bounded s-ideals, which absorb the monoid action by "
               "construction, are separated by the U(x) subbasis",
               suite_ideals),
    "zar": ("the valuation carrier, whose members are valuation monoids by "
            "construction, is T0 (so spectral) at finite scale", suite_zar),
    "pruefer": ("the domination map is surjective, and a homeomorphism on "
                "instances whose localizations are valuations", suite_pruefer),
    "pronconst": ("the s-ideal space is T0, so at finite scale every subset "
                  "of it, the primes included, is proconstructible",
                  suite_pronconst),
    "main1": ("module systems satisfy Id1/M2/Id3/M4, example16 breaks Id2, "
              "and the system carrier is T0 under U_S", suite_main1),
    "main2": ("checks that the intersection system of the overmonoid "
              "carrier is finitary on bounded samples and, with a family, "
              "the family's declarations on its first members; records the "
              "finite-witness construction and the non-finitariness "
              "certificate search", suite_main2),
    "prop1": ("the overmonoid carrier embeds injectively into the system "
              "carrier", suite_prop1),
    "prop2": ("records that meets of finitary systems are finitary, with the "
              "union of the per-system witnesses; checks no line",
              suite_prop2),
    "corollaries": ("intersection systems are idempotent and finitary on "
                    "bounded samples", suite_corollaries),
}


def run_suite(suite, H, *, bound, seed, family=None):
    claim, fn = SUITES[suite]
    rep = SuiteReport(suite, claim, seed=seed, bound=bound)
    args = (family,) if suite == "main2" else ()
    return rep, fn(rep, H, *args, bound, seed)


@functools.cache
def _parser():
    """The command line parser, built on the first ``main`` call and kept
    for the process: building it costs several times a parse."""
    parser = argparse.ArgumentParser(
        prog="monoid-spectra",
        description="verification suites for monoid spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--input", help="monoid description file (JSON)")
    v.add_argument("--family", help="family description file (JSON)")
    v.add_argument("--bound", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--report", help="write the report to this path")
    v.add_argument("--dot", help="write a DOT drawing to this path")
    v.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        seed = args.seed if args.seed is not None else int(
            os.environ.get("MONOID_SPECTRA_SEED", "0"))
    except ValueError:
        print("error: MONOID_SPECTRA_SEED must be an integer",
              file=sys.stderr)
        return 2
    family = None
    try:
        if args.family:
            family = family_from_file(args.family)
        if args.input:
            H = monoid_from_file(args.input)
        elif args.suite == "main2" and family is not None:
            H = family[0]
        else:
            print("error: --input is required for this suite",
                  file=sys.stderr)
            return 2
        if args.bound is not None:
            if args.bound <= 0:
                print("error: --bound must be positive", file=sys.stderr)
                return 2
            bound = args.bound
        else:
            bound = H.context.default_bound
        report, render = run_suite(args.suite, H, bound=bound, seed=seed,
                                   family=family)
        # a suite that draws returns a renderer, called only for --dot
        dot = render() if args.dot and render is not None else None
        body = report.json() if args.json else report.text()
        sys.stdout.write(body)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(body)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot if dot is not None else "digraph empty {\n}\n")
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WindowTooLarge:
        # a suite may widen the window past the bound, so name the bound
        print(f"unsupported: --bound {bound} needs a window of more than "
              f"{MAX_WINDOW} points", file=sys.stderr)
        return 3
    except UnsupportedRealization as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
