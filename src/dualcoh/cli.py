"""Command-line front end: family runs, sweeps, check suites, ring dumps.

Exit codes: 0 success (a false verdict is still success), 2 usage error,
3 resource cap exceeded, 4 internal inconsistency.  JSON goes to stdout,
diagnostics to stderr.  The per-degree monomial cap can be set with
--cap, a --config file or the DUALCOH_MONOMIAL_CAP environment variable
(in that order of precedence); it must be an integer >= 1.
"""

import argparse
import json
import os
import sys
from functools import cache

from .algebra import DEFAULT_MONOMIAL_CAP, poincare_polynomial
from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InvalidPresentationError,
)
from .report import (
    SCHEMA_VERSION,
    RunConfig,
    TOOL_VERSION,
    canonical_family_id,
    run_checks,
    run_family,
    run_sweep,
    sweep_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INCONSISTENT = 4


def _parse_int_pair_list(text):
    """'1:1,1:2' -> [(1, 1), (1, 2)]"""
    parts = []
    for chunk in text.split(","):
        a, _, b = chunk.partition(":")
        parts.append((int(a), int(b)))
    return parts


def _parse_range(text):
    """'2..5' or '3' -> inclusive (lo, hi); a reversed range is refused."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (int(lo), int(lo))
    except ValueError:
        raise InvalidPresentationError(f"cannot parse range {text!r}; expected lo..hi")
    _usage_if(lo > hi, f"range {text!r} is reversed; expected lo..hi with lo <= hi")
    return lo, hi


def _resolve_cap(args, cfg):
    """The monomial cap from --cap, the loaded --config or DUALCOH_MONOMIAL_CAP."""
    env = os.environ.get("DUALCOH_MONOMIAL_CAP")
    try:
        fallback = int(env) if env else DEFAULT_MONOMIAL_CAP
    except ValueError:
        raise InvalidPresentationError(
            f"DUALCOH_MONOMIAL_CAP must be an integer, got {env!r}")
    cap = _resolve_int(args, cfg, "cap", fallback)
    _usage_if(cap < 1, f"the monomial cap must be at least 1, got {cap}")
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


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="emit JSON on stdout")
    parser.add_argument("--cap", type=int, default=None,
                        help="per-degree monomial cap (default from "
                             "DUALCOH_MONOMIAL_CAP or %d)" % DEFAULT_MONOMIAL_CAP)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for property-check sampling (default 42)")
    parser.add_argument("--checks", default="",
                        help="comma list of suites to attach: "
                             "oracle,properties,paper-identities")
    parser.add_argument("--config", default=None,
                        help="optional JSON config file with cap / seed / "
                             "checks defaults; flags take precedence")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dualcoh",
        description="Exact cohomology of compact dual symmetric spaces: "
                    "non-vanishing and ghost-class certificates.")
    ap.add_argument("--version", action="version", version=f"dualcoh {TOOL_VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="run one (G, H) family instance")
    fam.add_argument("family_id", help="sl-imag-sp | sl-odd-real | siegel | "
                                       "unitary | sp-in-ugg")
    fam.add_argument("--n", type=int, help="rank for the sl families")
    fam.add_argument("--g", type=int, help="rank for siegel / sp-in-ugg")
    fam.add_argument("--p", type=int, help="p for the unitary family")
    fam.add_argument("--q", type=int, help="q for the unitary family")
    fam.add_argument("--parts", help="siegel: '2,1'; unitary: '1:1,1:2'")
    _add_common(fam)

    sw = sub.add_parser("sweep", help="run a family over parameter ranges")
    sw.add_argument("family_id")
    sw.add_argument("--n", help="range lo..hi for the sl families")
    sw.add_argument("--g", help="range lo..hi for siegel / sp-in-ugg")
    sw.add_argument("--p", help="range lo..hi for unitary")
    sw.add_argument("--q", help="range lo..hi for unitary")
    sw.add_argument("--allow-q-deficit", action="store_true",
                    help="unitary: include decompositions with sum q_i < q")
    _add_common(sw)

    ck = sub.add_parser("check", help="run the oracle / identity / property suites")
    ck.add_argument("--suite", action="append", default=[],
                    help="suite name (repeatable); default: all")
    ck.add_argument("--json", action="store_true")
    ck.add_argument("--seed", type=int, default=42)

    rg = sub.add_parser("ring", help="dump Betti data for a catalog ring")
    rg.add_argument("ring_id", help="su | sp-group | su-so | lagrangian | grassmannian")
    rg.add_argument("--n", type=int)
    rg.add_argument("--g", type=int)
    rg.add_argument("--p", type=int)
    rg.add_argument("--q", type=int)
    rg.add_argument("--poincare", action="store_true",
                    help="print only the Poincare coefficient list")
    rg.add_argument("--json", action="store_true")
    rg.add_argument("--cap", type=int, default=None)
    return ap


def _family_parameters(args):
    fid = canonical_family_id(args.family_id)

    def need(flag, val):
        _usage_if(val is None, f"family {fid} needs --{flag}")
        return val
    if fid in ("sl-imag-sp", "sl-odd-real"):
        return fid, {"n": need("n", args.n)}
    if fid == "siegel-product":
        g = need("g", args.g)
        parts_text = need("parts", args.parts)
        try:
            parts = [int(x) for x in parts_text.split(",")]
        except ValueError:
            raise InvalidPresentationError(f"cannot parse --parts {parts_text!r}")
        return fid, {"g": g, "parts": parts}
    if fid == "unitary-product":
        p, q = need("p", args.p), need("q", args.q)
        parts_text = need("parts", args.parts)
        try:
            parts = _parse_int_pair_list(parts_text)
        except ValueError:
            raise InvalidPresentationError(f"cannot parse --parts {parts_text!r}")
        return fid, {"p": p, "q": q, "parts": parts}
    return fid, {"g": need("g", args.g)}


def _usage_if(cond, message):
    if cond:
        raise InvalidPresentationError(message)


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
    fid, params = _family_parameters(args)
    config = _run_config(args, fid, params)
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
    fid = canonical_family_id(args.family_id)
    ranges = {}
    if fid in ("sl-imag-sp", "sl-odd-real"):
        _usage_if(args.n is None, f"sweep {fid} needs --n lo..hi")
        ranges["n"] = _parse_range(args.n)
    elif fid == "siegel-product":
        _usage_if(args.g is None, "sweep siegel needs --g lo..hi")
        ranges["g"] = _parse_range(args.g)
    elif fid == "unitary-product":
        _usage_if(args.p is None or args.q is None, "sweep unitary needs --p and --q")
        ranges["p"] = _parse_range(args.p)
        ranges["q"] = _parse_range(args.q)
        ranges["full_q"] = not args.allow_q_deficit
    else:
        _usage_if(args.g is None, "sweep sp-in-ugg needs --g lo..hi")
        ranges["g"] = _parse_range(args.g)
    config = _run_config(args, fid, {})
    reports, errors, summary, timing = run_sweep(fid, ranges, config)
    print(f"swept {summary['instances']} instances in {timing:.3f}s", file=sys.stderr)
    if args.json:
        sys.stdout.write(sweep_to_json(reports, errors, summary))
        return EXIT_OK
    print(f"sweep {fid}: {summary['instances']} instances, "
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
    from .rings import (
        grassmannian_algebra,
        lagrangian_algebra,
        sp_group_algebra,
        su_algebra,
        su_so_algebra,
    )
    cap = _resolve_cap(args, {})
    rid = args.ring_id
    if rid == "su":
        _usage_if(args.n is None, "ring su needs --n")
        alg, label = su_algebra(args.n, cap), f"su n={args.n}"
    elif rid == "sp-group":
        _usage_if(args.n is None, "ring sp-group needs --n")
        alg, label = sp_group_algebra(args.n, cap), f"sp-group n={args.n}"
    elif rid == "su-so":
        _usage_if(args.n is None, "ring su-so needs --n")
        alg, label = su_so_algebra(args.n, cap), f"su-so n={args.n}"
    elif rid == "lagrangian":
        _usage_if(args.g is None, "ring lagrangian needs --g")
        alg, label = lagrangian_algebra(args.g, cap), f"lagrangian g={args.g}"
    elif rid == "grassmannian":
        _usage_if(args.p is None or args.q is None, "ring grassmannian needs --p and --q")
        alg, label = grassmannian_algebra(args.p, args.q, cap), \
            f"grassmannian p={args.p} q={args.q}"
    else:
        raise InvalidPresentationError(
            f"unknown ring {rid!r}; known: su, sp-group, su-so, lagrangian, grassmannian")
    pp = poincare_polynomial(alg)
    if args.json:
        sys.stdout.write(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "ring": rid,
            "parameters": {k: getattr(args, k) for k in ("n", "g", "p", "q")
                           if getattr(args, k) is not None},
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
