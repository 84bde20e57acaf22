"""Re-verification of every output a workload emitted.

A family report passes when
  * its Betti data for G and H equal independent enumerators (strict and
    box partitions from the check suites, subset sums for exterior rings);
  * its verdicts and its exact dual class equal the committed reference
    (the dual class is unique in the canonical-top normalisation);
  * a positive verdict's witness lies in the kernel ideal and pairs nonzero
    with the dual class.  The witness itself is not pinned: it is checked.
A check-suite result passes when its name is in the reference and it
passed.  A reference check that is missing counts as a failed output.

The kernel ideals are restated here from the family definitions, so the
witness check does not read them from the program's own instance objects.
"""

import json

from dualcoh.algebra import ideal_basis_in_degree, pairing
from dualcoh.checks import box_partition_betti, strict_partition_betti
from dualcoh.linalg import SparseRREF
from dualcoh.report import element_from_pairs
from dualcoh.rings import grassmannian_algebra, lagrangian_algebra, su_algebra

from workloads import SUITES, instance_key


def _subset_sums(degrees):
    out = [0] * (sum(degrees) + 1)
    for mask in range(1 << len(degrees)):
        out[sum(d for i, d in enumerate(degrees) if mask >> i & 1)] += 1
    return out


def _product(series):
    out = [1]
    for s in series:
        conv = [0] * (len(out) + len(s) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(s):
                conv[i + j] += a * b
        out = conv
    return out


def expected_betti(family, params):
    """(Betti of G, Betti of H) from enumerators that build no ring."""
    if family == "sl-imag-sp":
        n = params["n"]
        return (_subset_sums(list(range(3, 4 * n, 2))),
                _subset_sums(list(range(3, 4 * n, 4))))
    if family == "sl-odd-real":
        n = params["n"]
        return (_subset_sums(list(range(3, 4 * n + 2, 2))),
                _subset_sums(list(range(5, 4 * n + 2, 4))))
    if family == "siegel-product":
        return (strict_partition_betti(params["g"]),
                _product(strict_partition_betti(a) for a in params["parts"]))
    if family == "unitary-product":
        return (box_partition_betti(params["p"], params["q"]),
                _product(box_partition_betti(a, b) for a, b in params["parts"]))
    g = params["g"]
    return box_partition_betti(g, g), strict_partition_betti(g)


def ring_and_ideal(family, params):
    """The dual of G and the generators of its kernel ideal."""
    if family in ("sl-imag-sp", "sl-odd-real"):
        n = params["n"]
        rank = 2 * n if family == "sl-imag-sp" else 2 * n + 1
        G = su_algebra(rank)
        return G, [G.gen(f"e{2 * rank - 1}")]
    if family == "siegel-product":
        G = lagrangian_algebra(params["g"])
        return G, [G.gen(f"sigma{params['g']}")]
    if family == "unitary-product":
        p, q = params["p"], params["q"]
    else:
        p = q = params["g"]
    G = grassmannian_algebra(p, q)
    return G, [G.gen(f"sigma{p}"), G.gen(f"tau{q}")]


def _in_span(elem, basis, alg, d):
    rr = SparseRREF()
    pos = alg.basis_positions(d)
    for u in basis:
        rr.add({pos[m]: c for m, c in u.terms.items()})
    return not rr.reduce({pos[m]: c for m, c in elem.terms.items()})


def verdict_of(doc):
    """What a family report decides; traced and untraced runs must agree."""
    ghost = doc["ghost"]
    return {"nonvanishing": doc["nonvanishing"]["verdict"],
            "ghost": {k: ghost[k] for k in sorted(ghost) if k != "discrepancy_note"},
            "fundamental_class": doc["fundamental_class"]}


def verify_family(doc, reference):
    """Failure reasons for one parsed family report (empty when it passes)."""
    family, params = doc["family"], doc["parameters"]
    ref = reference["instances"].get(instance_key(family, params))
    if ref is None:
        return ["no reference entry"]
    bad = []
    want_g, want_h = expected_betti(family, params)
    if doc["betti_G"] != want_g or doc["betti_H"] != want_h:
        bad.append("Betti data differ from the enumerators")
    G, ideal = ring_and_ideal(family, params)
    fc = element_from_pairs(G, doc["fundamental_class"])
    if fc != element_from_pairs(G, ref["fundamental_class"]):
        bad.append("dual class differs from the reference")
    got = verdict_of(doc)
    if (got["nonvanishing"], got["ghost"]) != (ref["nonvanishing"], ref["ghost"]):
        bad.append("verdict booleans differ from the reference")
    witness = doc["nonvanishing"]["witness"]
    if got["nonvanishing"]:
        w = element_from_pairs(G, witness or [])
        du = G.top_degree - fc.homogeneous_degree()
        off_degree = any(G.monomial_degree(m) != du for m in w.terms)
        if w.is_zero() or off_degree or not _in_span(w, ideal_basis_in_degree(ideal, du), G, du):
            bad.append("witness is not in the kernel ideal")
        elif pairing(fc, w) == 0:
            bad.append("witness pairs to zero with the dual class")
    elif witness is not None:
        bad.append("negative verdict carries a witness")
    return bad


def check_outputs(doc, reference, seed):
    """[(check name, failure reasons)] for one `dualcoh check --json` document."""
    envelope_ok = doc.get("seed") == seed and sorted(doc.get("suites", [])) == sorted(SUITES)
    seen = {}
    for r in doc.get("results", []):
        bad = [] if envelope_ok else ["document seed or suites are wrong"]
        if r["name"] not in reference["checks"]:
            bad.append("check is not in the reference")
        if r["passed"] is not True:
            bad.append(f"check failed: {r['detail']}")
        seen[r["name"]] = bad
    for name in reference["checks"]:
        seen.setdefault(name, ["reference check is missing"])
    return sorted(seen.items())


def outputs_of(workload, text, reference, seed):
    """Split one CLI call's stdout into outputs: (key, bytes, verdict, failures).

    A sweep call emits one report; a check call emits one output per check,
    each carrying its own serialised bytes so that instability is counted
    per check.
    """
    doc = json.loads(text)
    if workload == "check-suites":
        results = {r["name"]: r for r in doc.get("results", [])}
        return [(name, json.dumps(results.get(name), indent=2, sort_keys=True),
                 results.get(name, {}).get("passed"), bad)
                for name, bad in check_outputs(doc, reference, seed)]
    key = instance_key(doc["family"], doc["parameters"])
    return [(key, text, verdict_of(doc), verify_family(doc, reference))]
