"""Command-line front end: family runs, sweeps, check suites, ring dumps.

The family, sweep and ring commands take the rank flags --n, --g, --p and
--q; which of them an id needs is read from the catalog's family table
(``catalog.FAMILIES``) or the ring table (``rings.RINGS``), and a missing
flag, or one the id does not take, is a usage error.  --parts takes a
partition '2,1' or pairs '1:1,1:2', and the family checks the shape.

Exit codes: 0 success (a false verdict is still success), 2 usage error,
3 resource cap exceeded, 4 internal inconsistency.  JSON goes to stdout,
diagnostics to stderr.  The per-degree monomial cap can be set with
--cap, a --config file or the DUALCOH_MONOMIAL_CAP environment variable
(in that order of precedence); it must be an integer >= 1.  A command builds
its rings inside ``algebra.monomial_cap``.
"""

import argparse
import json
import os
import sys
from functools import cache

from .algebra import DEFAULT_MONOMIAL_CAP, monomial_cap, poincare_polynomial
from .catalog import FAMILIES, FAMILY_ALIASES
from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InvalidPresentationError,
)
from .report import (
    SCHEMA_VERSION,
    RunConfig,
    TOOL_VERSION,
    run_checks,
    run_family,
    run_sweep,
    sweep_to_json,
)
from .rings import RINGS, bind_parameters

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INCONSISTENT = 4


# The rank flags of the family, sweep and ring commands.
_RANKS = ("n", "g", "p", "q")


def _parse_parts(text):
    """'2,1' -> [2, 1]; '1:1,1:2' -> [(1, 1), (1, 2)]; the family checks the shape."""
    try:
        return [tuple(map(int, chunk.split(":"))) if ":" in chunk else int(chunk)
                for chunk in text.split(",")]
    except ValueError:
        raise InvalidPresentationError(f"cannot parse --parts {text!r}")


def _parse_range(text):
    """'2..5' or '3' -> inclusive (lo, hi); a reversed range is refused."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (int(lo), int(lo))
    except ValueError:
        raise InvalidPresentationError(f"cannot parse range {text!r}; expected lo..hi")
    if lo > hi:
        raise InvalidPresentationError(
            f"range {text!r} is reversed; expected lo..hi with lo <= hi")
    return lo, hi


def _resolve_cap(args, cfg):
    """The monomial cap: --cap, else the loaded --config, else DUALCOH_MONOMIAL_CAP."""
    env = os.environ.get("DUALCOH_MONOMIAL_CAP")
    fallback = DEFAULT_MONOMIAL_CAP
    if env and getattr(args, "cap", None) is None and "cap" not in cfg:
        try:
            fallback = int(env)
        except ValueError:
            raise InvalidPresentationError(
                f"DUALCOH_MONOMIAL_CAP must be an integer, got {env!r}")
    cap = _resolve_int(args, cfg, "cap", fallback)
    if cap < 1:
        raise InvalidPresentationError(f"the monomial cap must be at least 1, got {cap}")
    return cap


def _load_config_file(path):
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidPresentationError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise InvalidPresentationError(f"config file {path} must hold a JSON object")
    return data


def _resolve(args, cfg, key, fallback):
    """Effective option value: flag beats the loaded config file beats fallback."""
    flag = getattr(args, key, None)
    if flag is not None and flag != "":
        return flag
    return cfg.get(key, fallback)


_CAP_HELP = ("per-degree monomial cap (default from DUALCOH_MONOMIAL_CAP or %d)"
             % DEFAULT_MONOMIAL_CAP)


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="emit JSON on stdout")
    parser.add_argument("--cap", type=int, default=None, help=_CAP_HELP)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for property-check sampling (default 42)")
    parser.add_argument("--checks", default="",
                        help="comma list of suites to attach: "
                             "oracle,properties,paper-identities")
    parser.add_argument("--config", default=None,
                        help="optional JSON config file with cap / seed / "
                             "checks defaults; flags take precedence")


def _add_ranks(parser, table, kind, help_text):
    """One flag per rank, its help naming the ids in ``table`` that take it."""
    for k in _RANKS:
        ids = ", ".join(i for i, names in table.items() if k in names)
        parser.add_argument(f"--{k}", type=kind, help=help_text.format(k=k, ids=ids))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dualcoh",
        description="Exact cohomology of compact dual symmetric spaces: "
                    "non-vanishing and ghost-class certificates.")
    ap.add_argument("--version", action="version", version=f"dualcoh {TOOL_VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    family_ids = " | ".join([*FAMILIES, *FAMILY_ALIASES])
    family_ranks = {fid: fam.ranks for fid, fam in FAMILIES.items()}
    fam = sub.add_parser("family", help="run one (G, H) family instance")
    fam.add_argument("family_id", help=family_ids)
    _add_ranks(fam, family_ranks, int, "{k} for {ids}")
    fam.add_argument("--parts", help="parts of a product family: '2,1' or '1:1,1:2'")
    _add_common(fam)

    sw = sub.add_parser("sweep", help="run a family over parameter ranges")
    sw.add_argument("family_id", help=family_ids)
    _add_ranks(sw, family_ranks, str, "range lo..hi of {k} for {ids}")
    sw.add_argument("--allow-q-deficit", action="store_true",
                    help="unitary: include decompositions with sum q_i < q")
    _add_common(sw)

    ck = sub.add_parser("check", help="run the oracle / identity / property suites")
    ck.add_argument("--suite", action="append", default=[],
                    help="suite name (repeatable); default: all")
    ck.add_argument("--json", action="store_true")
    ck.add_argument("--seed", type=int, default=42)

    rg = sub.add_parser("ring", help="dump Betti data for a catalog ring")
    rg.add_argument("ring_id", help=" | ".join(RINGS))
    _add_ranks(rg, {rid: names for rid, (_, names) in RINGS.items()}, int, "{k} for {ids}")
    rg.add_argument("--poincare", action="store_true",
                    help="print only the Poincare coefficient list")
    rg.add_argument("--json", action="store_true")
    rg.add_argument("--cap", type=int, default=None, help=_CAP_HELP)
    return ap


def _given_ranks(args):
    """The rank flags given on the command line, by name."""
    return {k: getattr(args, k) for k in _RANKS if getattr(args, k) is not None}


def _checks_tuple(value):
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(s for s in value.split(",") if s)
    if not isinstance(value, (list, tuple)) or not all(isinstance(s, str) for s in value):
        raise InvalidPresentationError(f"checks must be a list of suite names, got {value!r}")
    return tuple(value)


def _resolve_int(args, cfg, key, fallback):
    value = _resolve(args, cfg, key, fallback)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidPresentationError(f"{key} must be an integer, got {value!r}")
    return value


def _run_config(args, fid, params):
    cfg = _load_config_file(args.config)
    return RunConfig(
        family_id=fid, parameters=params,
        monomial_cap=_resolve_cap(args, cfg),
        seed=_resolve_int(args, cfg, "seed", 42),
        checks=_checks_tuple(_resolve(args, cfg, "checks", ())))


def cmd_family(args):
    params = _given_ranks(args)
    if args.parts is not None:
        params["parts"] = _parse_parts(args.parts)
    config = _run_config(args, args.family_id, params)
    doc = run_family(config)
    print(f"computed in {doc.timing:.3f}s", file=sys.stderr)
    if args.json:
        sys.stdout.write(doc.to_json())
        return EXIT_OK
    _print_family_text(doc)
    return EXIT_OK


def _fmt_terms(terms):
    if not terms:
        return "0"
    return " + ".join(f"{c}*{m}" if c not in ("1",) else m for m, c in terms)


def _print_family_text(doc):
    print(f"family {doc.family}  parameters {doc.parameters}")
    print(f"  top degrees: G {doc.top_degree_G}, H {doc.top_degree_H}")
    print(f"  betti G: {doc.betti_G}")
    print(f"  betti H: {doc.betti_H}")
    delta = doc.top_degree_G - doc.top_degree_H
    print(f"  dual class (degree {delta}): {_fmt_terms(doc.fundamental_class)}")
    nv = doc.nonvanishing
    print(f"  nonvanishing: {nv['verdict']}")
    if nv["witness"]:
        print(f"    witness: {_fmt_terms(nv['witness'])}")
    if doc.ghost["present"]:
        g = doc.ghost
        print(f"  ghost: {g['is_ghost']}  (not compactly supported: "
              f"{g['not_compactly_supported']}, Levi restriction in kernel: "
              f"{g['levi_restriction_in_levi_kernel']})")
        if g.get("discrepancy_note"):
            print(f"    note: {g['discrepancy_note']}")
    else:
        print("  ghost: no boundary data for this family")
    for k, v in doc.notes.items():
        print(f"  note[{k}]: {v}")
    for r in doc.check_results:
        mark = "PASS" if r["passed"] else "FAIL"
        detail = f"  {r['detail']}" if r["detail"] else ""
        print(f"  check [{mark}] {r['name']}{detail}")


def cmd_sweep(args):
    ranges = {k: _parse_range(v) for k, v in _given_ranks(args).items()}
    ranges["full_q"] = not args.allow_q_deficit
    config = _run_config(args, args.family_id, {})
    reports, errors, summary, timing = run_sweep(config.family_id, ranges, config)
    print(f"swept {summary['instances']} instances in {timing:.3f}s", file=sys.stderr)
    if args.json:
        sys.stdout.write(sweep_to_json(reports, errors, summary))
        return EXIT_OK
    print(f"sweep {config.family_id}: {summary['instances']} instances, "
          f"nonvanishing true {summary['nonvanishing_true']} / "
          f"false {summary['nonvanishing_false']}, ghosts {summary['ghost_true']}, "
          f"errors {summary['errors']}")
    for r in reports:
        nv = r.nonvanishing["verdict"]
        ghost = r.ghost.get("is_ghost") if r.ghost["present"] else "-"
        print(f"  {r.parameters}  nonvanishing={nv}  ghost={ghost}  "
              f"class={_fmt_terms(r.fundamental_class)}")
    for e in errors:
        print(f"  {e['parameters']}  ERROR {e['error']}: {e['message']}")
    return EXIT_OK


def cmd_check(args):
    config = RunConfig(family_id=None, parameters={},
                       seed=args.seed, checks=tuple(args.suite))
    result = run_checks(config)
    if args.json:
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    for r in result["results"]:
        mark = "PASS" if r["passed"] else "FAIL"
        detail = f"  {r['detail']}" if r["detail"] else ""
        print(f"[{mark}] {r['name']}{detail}")
    print(f"suites {', '.join(result['suites'])}: "
          f"{'all passed' if result['passed'] else 'FAILURES PRESENT'}")
    return EXIT_OK


def cmd_ring(args):
    cap = _resolve_cap(args, {})
    rid, params = args.ring_id, _given_ranks(args)
    if rid not in RINGS:
        raise InvalidPresentationError(f"unknown ring {rid!r}; known: {', '.join(RINGS)}")
    build, names = RINGS[rid]
    with monomial_cap(cap):
        alg = build(*bind_parameters(f"ring {rid}", names, params))
    label = " ".join([rid, *(f"{k}={v}" for k, v in params.items())])
    pp = poincare_polynomial(alg)
    if args.json:
        sys.stdout.write(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "ring": rid,
            "parameters": params,
            "generators": [[g.name, g.degree] for g in alg.generators],
            "top_degree": alg.top_degree,
            "total_dimension": alg.total_dimension,
            "poincare": pp,
        }, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    if args.poincare:
        print(" ".join(str(c) for c in pp))
        return EXIT_OK
    print(f"ring {label}")
    print(f"  generators: {', '.join(f'{g.name}(deg {g.degree})' for g in alg.generators)}")
    print(f"  top degree {alg.top_degree}, total dimension {alg.total_dimension}")
    print(f"  poincare: {pp}")
    return EXIT_OK


@cache
def _parser():
    """The parser of this process: built by the first ``main`` call, not at
    import, and reused by every later call."""
    return build_parser()


def main(argv=None):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "family":
            return cmd_family(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_ring(args)
    except InvalidPresentationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InconsistentPresentationError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
