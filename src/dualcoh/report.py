"""Machine-readable certificates and the run drivers behind the CLI.

Reports are deterministic: the same configuration (including the seed)
produces byte-identical JSON.  All rationals are serialized as exact
strings; no floating-point value ever enters a report.  Wall-clock timing
is measured but kept out of the JSON document (it goes to stderr as a
diagnostic) so that determinism holds at the byte level.
"""

import json
import time
from fractions import Fraction

from . import __version__ as TOOL_VERSION
from .algebra import DEFAULT_MONOMIAL_CAP, monomial_cap, order_key
from .catalog import (
    build_family,
    canonical_family_id,
    decide_nonvanishing,
    sweep_parameter_list,
)
from .checks import SUITE_NAMES, instance_checks, run_suites
from .errors import InvalidPresentationError

SCHEMA_VERSION = 2

class RunConfig:
    """One command's settings; an alias of ``family_id`` is canonicalised."""

    def __init__(self, family_id, parameters, monomial_cap=DEFAULT_MONOMIAL_CAP,
                 seed=42, checks=()):
        self.family_id = None if family_id is None else canonical_family_id(family_id)
        bad = set(checks) - set(SUITE_NAMES)
        if bad:
            raise InvalidPresentationError(
                f"unknown check suites {sorted(bad)}; known: {', '.join(SUITE_NAMES)}")
        self.parameters = parameters
        self.monomial_cap = monomial_cap
        self.seed = seed
        self.checks = checks


def element_pairs(alg, elem):
    """Element as [[monomial string, rational string], ...], basis-ordered."""
    monts = sorted(elem.terms, key=lambda m: (alg.monomial_degree(m), order_key(m)))
    return [[alg.monomial_string(m), str(elem.terms[m])] for m in monts]


def element_from_pairs(alg, pairs):
    """Inverse of :func:`element_pairs` (used to re-verify serialized witnesses).

    A coefficient is a rational string or an ``int``; a float is refused,
    not converted.  A malformed pair, monomial or coefficient is an
    ``InvalidPresentationError``.
    """
    raw = {}
    for pair in pairs:
        try:
            monstr, coeff = pair
            if type(monstr) is not str:
                raise TypeError(f"monomial {monstr!r} is not a string")
            if type(coeff) not in (str, int):
                raise TypeError(f"coefficient {coeff!r} is not a string or an int")
            mont = alg.parse_monomial(monstr)
            raw[mont] = raw.get(mont, 0) + Fraction(coeff)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidPresentationError(f"cannot read term {pair!r}: {exc}") from None
    return alg.element(raw)


class ReportDocument:
    """One family run: parameters, Betti data, dual class, and verdicts.

    ``fundamental_class`` (and any witness) is a list of
    [monomial string, rational string] pairs in basis order.  ``timing`` is
    wall-clock seconds; it is not one of ``FIELDS``, which ``to_dict`` (and
    hence JSON) and ``from_dict`` read, so identical configurations
    serialize identically.
    """

    FIELDS = ("family", "parameters", "betti_G", "betti_H", "top_degree_G",
              "top_degree_H", "fundamental_class", "nonvanishing", "ghost", "notes",
              "check_results", "schema_version", "tool_version")

    def __init__(self, family, parameters, betti_G, betti_H, top_degree_G, top_degree_H,
                 fundamental_class, nonvanishing, ghost, notes=None, check_results=None,
                 schema_version=SCHEMA_VERSION, tool_version=TOOL_VERSION, timing=None):
        self.family = family
        self.parameters = parameters
        self.betti_G = betti_G
        self.betti_H = betti_H
        self.top_degree_G = top_degree_G
        self.top_degree_H = top_degree_H
        self.fundamental_class = fundamental_class
        self.nonvanishing = nonvanishing
        self.ghost = ghost
        self.notes = {} if notes is None else notes
        self.check_results = [] if check_results is None else check_results
        self.schema_version = schema_version
        self.tool_version = tool_version
        self.timing = timing

    def to_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data):
        return cls(**{name: data[name] for name in cls.FIELDS})

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_family(config):
    """Build one instance, decide its verdicts, and package the certificate."""
    t0 = time.monotonic()
    with monomial_cap(config.monomial_cap):
        inst = build_family(config.family_id, config.parameters)
    verdict = decide_nonvanishing(inst)
    G = inst.dual_G
    fc = verdict.fundamental_class
    doc = ReportDocument(
        family=inst.family_id,
        parameters=inst.parameters,
        betti_G=verdict.betti_G,
        betti_H=verdict.betti_H,
        top_degree_G=G.top_degree,
        top_degree_H=inst.dual_H.top_degree,
        fundamental_class=element_pairs(G, fc),
        nonvanishing={
            "verdict": verdict.nonvanishing,
            "witness": None if verdict.nonvanishing_witness is None else
            element_pairs(G, verdict.nonvanishing_witness),
        },
        ghost=_ghost_dict(verdict.ghost),
        notes={k: v for k, v in sorted(inst.notes.items()) if k != "discrepancy"},
    )
    if config.checks:
        results = instance_checks(inst, verdict, sorted(set(config.checks)),
                                  seed=config.seed)
        doc.check_results = [r._asdict() for r in results]
    doc.timing = time.monotonic() - t0
    return doc


def _ghost_dict(cert):
    if cert is None:
        return {"present": False}
    return {"present": True, **cert._asdict()}


# ------------------------------------------------------------------ sweeps


def run_sweep(family_id, ranges, config):
    """One report per instance; per-instance errors recorded, sweep continues."""
    family_id = canonical_family_id(family_id)
    reports = []
    errors = []
    t0 = time.monotonic()
    for params in sweep_parameter_list(family_id, ranges):
        sub = RunConfig(family_id=family_id, parameters=params,
                        monomial_cap=config.monomial_cap,
                        seed=config.seed, checks=config.checks)
        try:
            reports.append(run_family(sub))
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            errors.append({"parameters": params, "error": type(exc).__name__,
                           "message": str(exc)})
    summary = {
        "family": family_id,
        "instances": len(reports) + len(errors),
        "nonvanishing_true": sum(1 for r in reports if r.nonvanishing["verdict"]),
        "nonvanishing_false": sum(1 for r in reports if not r.nonvanishing["verdict"]),
        "ghost_true": sum(1 for r in reports if r.ghost.get("is_ghost")),
        "errors": len(errors),
    }
    timing = time.monotonic() - t0
    return reports, errors, summary, timing


def sweep_to_json(reports, errors, summary):
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "summary": summary,
        "reports": [r.to_dict() for r in reports],
        "errors": errors,
    }, indent=2, sort_keys=True) + "\n"


def run_checks(config):
    """Execute the configured (default: all) global check suites."""
    names = sorted(set(config.checks)) if config.checks else list(SUITE_NAMES)
    results = run_suites(names, seed=config.seed)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "seed": config.seed,
        "suites": names,
        "passed": all(r.passed for r in results),
        "results": [r._asdict() for r in results],
    }
