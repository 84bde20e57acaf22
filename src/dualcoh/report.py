"""Machine-readable certificates and the run drivers behind the CLI.

Reports are deterministic: the same configuration (including the seed)
produces byte-identical JSON.  All rationals are serialized as exact
strings; no floating-point value ever enters a report.  Wall-clock timing
is measured but kept out of the JSON document (it goes to stderr as a
diagnostic) so that determinism holds at the byte level.
"""

import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import __version__ as TOOL_VERSION
from .algebra import DEFAULT_MONOMIAL_CAP, order_key
from .catalog import (
    build_family,
    canonical_family_id,
    decide_nonvanishing,
    sweep_parameter_list,
)
from .checks import SUITE_NAMES, instance_checks, run_suites
from .errors import InvalidPresentationError

SCHEMA_VERSION = 2

@dataclass
class RunConfig:
    family_id: str | None
    parameters: dict
    monomial_cap: int = DEFAULT_MONOMIAL_CAP
    seed: int = 42
    checks: tuple = ()

    def __post_init__(self):
        if self.family_id is not None:
            self.family_id = canonical_family_id(self.family_id)
        bad = set(self.checks) - set(SUITE_NAMES)
        if bad:
            raise InvalidPresentationError(
                f"unknown check suites {sorted(bad)}; known: {', '.join(SUITE_NAMES)}")


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


@dataclass
class ReportDocument:
    """One family run: parameters, Betti data, dual class, and verdicts.

    ``fundamental_class`` (and any witness) is a list of
    [monomial string, rational string] pairs in basis order.  ``timing`` is
    wall-clock seconds; it is excluded from ``to_dict`` (and hence from
    JSON) so identical configurations serialize identically.
    """

    family: str
    parameters: dict
    betti_G: list
    betti_H: list
    top_degree_G: int
    top_degree_H: int
    fundamental_class: list
    nonvanishing: dict
    ghost: dict
    notes: dict = field(default_factory=dict)
    check_results: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION
    timing: float | None = None

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timing"}

    @classmethod
    def from_dict(cls, data):
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name != "timing"})

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_family(config):
    """Build one instance, decide its verdicts, and package the certificate."""
    t0 = time.monotonic()
    inst = build_family(config.family_id, config.parameters, config.monomial_cap)
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
        doc.check_results = [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]
    doc.timing = time.monotonic() - t0
    return doc


def _ghost_dict(cert):
    if cert is None:
        return {"present": False}
    return {
        "present": True,
        "not_compactly_supported": cert.not_compactly_supported,
        "levi_restriction_in_levi_kernel": cert.levi_restriction_in_levi_kernel,
        "is_ghost": cert.is_ghost,
        "discrepancy_note": cert.discrepancy_note,
    }


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
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
    }
