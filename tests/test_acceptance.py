"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance here is exact: verdicts are equalities of rational numbers
or booleans, never approximations.  Stated time budgets are asserted with
wall-clock measurements on freshly built rings.
"""

import time
from fractions import Fraction
from math import comb

from dualcoh import (
    decide_nonvanishing,
    ideal_basis_in_degree,
    pairing,
    poincare_polynomial,
    siegel_theta,
)
from dualcoh.catalog import build_family, two_part_partitions, unitary_decompositions
from dualcoh.checks import (
    box_partition_betti,
    check_grassmannian_relation_expansion,
    check_kahler_tau_identity,
    check_lagrangian_relation_expansion,
    check_square_truncation,
    check_structural_zeros,
    check_substitution_kernel,
    check_top_product,
    check_top_tau_power,
    property_checks,
    strict_partition_betti,
)
from dualcoh.report import RunConfig, run_sweep, sweep_to_json
from dualcoh.rings import clear_ring_cache, grassmannian_algebra, lagrangian_algebra


def _announce(number, name, ok, extra=""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({extra})" if extra else ""))
    assert ok, f"criterion {number} ({name}) failed: {extra}"


def test_c1_ring_oracles():
    clear_ring_cache()
    worst = 0.0
    for g in range(1, 7):
        t0 = time.monotonic()
        ring = lagrangian_algebra(g)
        ok = (poincare_polynomial(ring) == strict_partition_betti(g)
              and ring.total_dimension == 2 ** g)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert ok and dt < 10.0, f"lagrangian g={g}: ok={ok}, {dt:.1f}s"
    for p in range(1, 6):
        for q in range(p, 6):
            t0 = time.monotonic()
            ring = grassmannian_algebra(p, q)
            ok = (poincare_polynomial(ring) == box_partition_betti(p, q)
                  and ring.total_dimension == comb(p + q, p))
            dt = time.monotonic() - t0
            worst = max(worst, dt)
            assert ok and dt < 10.0, f"grassmannian ({p},{q}): ok={ok}, {dt:.1f}s"
    _announce(1, "ring-oracles", True, f"worst instance {worst:.2f}s")


def test_c2_ring_identities():
    results = [
        check_square_truncation(gmax=6),
        check_top_product(gmax=6),
        check_top_tau_power(pq_max=5),
        check_kahler_tau_identity(pq_max=5),
        check_structural_zeros(gmax=6, pq_max=5),
    ]
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    scalars = next(r.detail for r in results
                   if r.name == "grassmannian-kahler-tau-identity")
    _announce(2, "ring-identities", True, f"kahler-power scalars {scalars}")


def test_c3_dual_class_closed_forms():
    reported = []
    for n in range(2, 6):
        inst = build_family("sl-imag-sp", {"n": n})
        fc = decide_nonvanishing(inst).fundamental_class
        G = inst.dual_G
        degrees = [4 * j + 1 for j in range(1, n)]
        mont = tuple(1 if g.degree in degrees else 0 for g in G.generators)
        lam = fc.coefficient(mont)
        assert lam != 0 and fc == lam * G.basis_element(mont), f"imag-sp n={n}"
        reported.append(f"imag-sp n={n}: {lam}")
    for n in range(1, 5):
        inst = build_family("sl-odd-real", {"n": n})
        fc = decide_nonvanishing(inst).fundamental_class
        G = inst.dual_G
        degrees = [4 * j - 1 for j in range(1, n + 1)]
        mont = tuple(1 if g.degree in degrees else 0 for g in G.generators)
        lam = fc.coefficient(mont)
        assert lam != 0 and fc == lam * G.basis_element(mont), f"odd-real n={n}"
        reported.append(f"odd-real n={n}: {lam}")
    _announce(3, "dual-class-closed-forms", True, "; ".join(reported))


def _certified_instances():
    specs = [("sl-imag-sp", {"n": n}) for n in range(1, 6)]
    specs += [("sl-odd-real", {"n": n}) for n in range(1, 5)]
    for g in range(2, 6):
        specs += [("siegel-product", {"g": g, "parts": parts})
                  for parts in two_part_partitions(g)]
    for p in range(1, 5):
        for q in range(p, 5):
            specs += [("unitary-product", {"p": p, "q": q, "parts": parts})
                      for parts in unitary_decompositions(p, q, full_q=True)]
    specs += [("sp-in-ugg", {"g": g}) for g in range(1, 5)]
    return specs


def test_c4_nonvanishing_verdicts():
    count = 0
    for fid, params in _certified_instances():
        inst = build_family(fid, params)
        v = decide_nonvanishing(inst)
        assert v.nonvanishing, f"{fid} {params}: expected nonvanishing"
        w = v.nonvanishing_witness
        du = inst.dual_G.top_degree - v.fundamental_class.homogeneous_degree()
        span = ideal_basis_in_degree(inst.franke_ideal, du)
        assert w in span or _in_span(inst.dual_G, w, span, du), \
            f"{fid} {params}: witness outside ideal"
        assert pairing(v.fundamental_class, w) != 0, f"{fid} {params}"
        count += 1
    thetas = []
    for g in range(2, 6):
        for parts in two_part_partitions(g):
            inst = build_family("siegel-product", {"g": g, "parts": parts})
            v = decide_nonvanishing(inst)
            theta = siegel_theta(inst)
            G = inst.dual_G
            full = G.one()
            for k in range(1, g + 1):
                full = full * G.gen(f"sigma{k}")
            prod = theta * v.fundamental_class
            mont, c = next(iter(full.terms.items()))
            lam = Fraction(prod.coefficient(mont), c)
            assert lam != 0 and prod == lam * full, f"siegel {g} {parts}"
            thetas.append(f"g={g},{parts}: {lam}")
    _announce(4, "nonvanishing-verdicts", True,
              f"{count} instances; theta scalars {'; '.join(thetas)}")


def _in_span(alg, elem, span, degree):
    from dualcoh.linalg import SparseRREF
    pos = alg.basis_positions(degree)
    rr = SparseRREF()
    for u in span:
        rr.add({pos[m]: c for m, c in u.terms.items()})
    return not rr.reduce({pos[m]: c for m, c in elem.terms.items()})


def test_c5_ghost_certificates():
    for n in range(2, 6):
        inst = build_family("sl-imag-sp", {"n": n})
        cert = decide_nonvanishing(inst).ghost
        assert cert is not None and cert.is_ghost, f"imag-sp n={n}"
        assert f"e{4 * n - 1}" in cert.discrepancy_note
        assert f"e{4 * n - 3}" in cert.discrepancy_note
    for n in range(1, 5):
        inst = build_family("sl-odd-real", {"n": n})
        cert = decide_nonvanishing(inst).ghost
        assert cert is not None and cert.is_ghost, f"odd-real n={n}"
        assert f"e{4 * n + 1}" in cert.discrepancy_note
        assert f"e{4 * n - 1}" in cert.discrepancy_note
    _announce(5, "ghost-certificates", True,
              "sl-imag-sp n=2..5 and sl-odd-real n=1..4, notes attached")


def test_c6_property_suites():
    t0 = time.monotonic()
    results = property_checks(seed=42, samples=100)
    dt = time.monotonic() - t0
    failures = [r.name for r in results if not r.passed]
    assert not failures, f"property failures: {failures}"
    assert dt < 300.0, f"property suite took {dt:.0f}s"
    _announce(6, "property-suites", True,
              f"{len(results)} checks in {dt:.1f}s, zero failures")


def test_c7_substitution_kernel():
    r = check_substitution_kernel(gmax=5)
    assert r.passed, r.detail
    # the relation data itself is cross-checked against root-variable expansion
    assert check_lagrangian_relation_expansion(gmax=4).passed
    assert check_grassmannian_relation_expansion(pq_max=6).passed
    _announce(7, "substitution-kernel", True, r.detail)


def test_c8_determinism():
    cfg = RunConfig(family_id="siegel-product", parameters={},
                    checks=("oracle", "paper-identities"))
    ranges = {"g": (2, 4)}
    first = sweep_to_json(*run_sweep("siegel-product", ranges, cfg)[:3])
    second = sweep_to_json(*run_sweep("siegel-product", ranges, cfg)[:3])
    assert first == second and first.encode() == second.encode()
    _announce(8, "determinism", True, f"{len(first)} bytes, identical")
