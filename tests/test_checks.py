"""The check-suite plumbing and its independent enumerators."""

import gc
import itertools
import random
import re
import time
import weakref
from types import SimpleNamespace

import pytest

import dualcoh.checks
import reference
from dualcoh.algebra import exterior_algebra, model_quotient_algebra
from dualcoh.checks import (
    box_partition_betti,
    catalog_sweep_specs,
    check_grassmannian_poincare,
    check_gysin_soundness,
    check_grassmannian_relation_expansion,
    check_lagrangian_poincare,
    check_lagrangian_relation_expansion,
    check_morphism_multiplicativity,
    instance_checks,
    instance_identity_checks,
    property_checks,
    run_suites,
    strict_partition_betti,
)
from dualcoh.catalog import (
    build_family,
    decide_nonvanishing,
    family_siegel,
    family_sl_odd_real,
    family_unitary,
)
from dualcoh.morphisms import Morphism, build_morphism, random_homogeneous, sample_products
from dualcoh.rings import (
    QTildeRing,
    SchurRing,
    grassmannian_relations,
    lagrangian_algebra,
    lagrangian_relations,
    su_algebra,
)
from reference import (
    batch_morphism_multiplicativity,
    batch_property_checks,
    sequential_multiplicativity,
)


def test_strict_partition_enumerator():
    # (1+t^2)(1+t^4)(1+t^6) expanded by hand
    assert strict_partition_betti(3) == [1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1]
    assert sum(strict_partition_betti(6)) == 64


def test_box_partition_enumerator():
    # Gaussian binomial [5 choose 2] in t^2
    assert box_partition_betti(2, 3) == [1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1]
    assert sum(box_partition_betti(3, 3)) == 20


def test_relation_expansions_small():
    assert check_lagrangian_relation_expansion(gmax=3).detail == "g <= 3"
    assert check_grassmannian_relation_expansion(pq_max=4).detail == "p+q <= 4"
    assert check_lagrangian_relation_expansion(gmax=3).passed
    assert check_grassmannian_relation_expansion(pq_max=4).passed


def test_relation_expansions_report_the_first_bad_case(monkeypatch):
    real_lagrangian, real_grassmannian = lagrangian_relations, grassmannian_relations

    def lagrangian(g):
        rels = real_lagrangian(g)
        return rels if g < 2 else [{m: 2 * c for m, c in rels[0].items()}, *rels[1:]]

    def grassmannian(p, q):
        gens, rels = real_grassmannian(p, q)
        return gens, ([{**rels[0], **rels[1]}, *rels[2:]] if (p, q) == (1, 2) else rels)

    monkeypatch.setattr(dualcoh.checks, "lagrangian_relations", lagrangian)
    monkeypatch.setattr(dualcoh.checks, "grassmannian_relations", grassmannian)
    lag = check_lagrangian_relation_expansion(gmax=3)
    assert (lag.name, lag.passed) == ("lagrangian-relation-expansion", False)
    assert re.fullmatch(r"g=2: expansion mismatch at degrees \[\d+\]", lag.detail), lag.detail
    gr = check_grassmannian_relation_expansion(pq_max=4)
    assert (gr.name, gr.passed) == ("grassmannian-relation-expansion", False)
    assert gr.detail == "(p,q)=(1,2): relation expansion not homogeneous"


def test_passing_oracle_details_carry_no_times():
    # a build time in a passing detail would make `dualcoh check --json`
    # differ between two runs
    for result in (check_lagrangian_poincare(gmax=3), check_grassmannian_poincare(pq_max=3)):
        assert result.passed
        assert not re.search(r"\d\.\d+s", result.detail), result.detail


def test_poincare_oracles_ignore_the_clock(monkeypatch):
    before = [check_lagrangian_poincare(gmax=3), check_grassmannian_poincare(pq_max=3)]
    clock = itertools.count(step=3600.0)  # every reading is an hour after the last
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    after = [check_lagrangian_poincare(gmax=3), check_grassmannian_poincare(pq_max=3)]
    assert after == before and all(r.passed for r in after)


def test_poincare_oracles_read_the_presentation(monkeypatch):
    # The first relation dropped: the model, and so every Betti number, is
    # unchanged, but the presentation no longer cuts out the ring.
    def lagrangian(g):
        gens = [(f"sigma{i}", 2 * i) for i in range(1, g + 1)]
        return model_quotient_algebra(gens, lagrangian_relations(g)[1:], QTildeRing(g))

    def grassmannian(p, q):
        gens, rels = grassmannian_relations(p, q)
        return model_quotient_algebra(gens, rels[1:], SchurRing(p, q))

    monkeypatch.setattr(dualcoh.checks, "lagrangian_algebra", lagrangian)
    monkeypatch.setattr(dualcoh.checks, "grassmannian_algebra", grassmannian)
    # LG(1)'s only relation lies above its top degree, so g=2 is the first miss
    got = check_lagrangian_poincare(gmax=3)
    assert (got.passed, got.detail) == (
        False, "g=2: Betti numbers differ from the presentation's Hilbert series")
    got = check_grassmannian_poincare(pq_max=3)
    assert (got.passed, got.detail) == (
        False, "(1,1): Betti numbers differ from the presentation's Hilbert series")


def _tau_shortcut(inst):
    results = instance_identity_checks(inst, decide_nonvanishing(inst))
    [result] = [r for r in results if r.name == "tau-restriction-shortcut"]
    return result


def test_tau_shortcut_check_fails_on_a_false_note():
    full, deficit = family_unitary(2, 2, [(1, 1), (1, 1)]), family_unitary(2, 3, [(1, 1), (1, 1)])
    assert _tau_shortcut(full).passed and _tau_shortcut(deficit).passed
    full.notes["tau_shortcut_holds"] = False  # sum q_i = q: the note must hold
    assert not _tau_shortcut(full).passed


def test_gysin_soundness_siegel_g7():
    inst = family_siegel(7, [4, 3])
    result = check_gysin_soundness([(inst, decide_nonvanishing(inst))])
    assert result.passed, result.detail


def test_run_suites_unknown_name():
    with pytest.raises(ValueError):
        run_suites(["bogus"])


def test_instance_checks_cover_all_suites():
    inst = family_sl_odd_real(1)
    v = decide_nonvanishing(inst)
    results = instance_checks(inst, v, ["oracle", "paper-identities", "properties"])
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "betti-oracle" in names and "dual-class-closed-form" in names


@pytest.fixture(scope="module")
def certified_instances():
    return [build_family(fid, params) for fid, params in catalog_sweep_specs()]


@pytest.mark.parametrize("seed", [21, 42])
def test_grouped_multiplicativity_matches_the_sequential_pass(certified_instances, seed):
    """The streamed check draws once per run of consecutive morphisms out of
    one source; it reads as a draw per morphism and as a draw per source."""
    got = check_morphism_multiplicativity(certified_instances, seed=seed)
    assert got.passed
    assert got == sequential_multiplicativity(certified_instances, seed=seed)
    assert got == batch_morphism_multiplicativity(certified_instances, seed=seed)


def _instance(name, restriction, levi=None):
    return SimpleNamespace(family_id=name, parameters={}, restriction=restriction,
                           levi_restriction=levi)


def _lagrangian_maps(g):
    """Identity, augmentation, and sigma_g -> 0 (not a ring map) on Lagrangian(g)."""
    L = lagrangian_algebra(g)
    gens = {x.name: L.gen(x.name) for x in L.generators}
    bad = dict(gens, **{f"sigma{g}": L.zero()})
    return build_morphism(L, L, gens), build_morphism(L, L, {}), Morphism(L, L, bad)


def test_planted_failure_between_good_maps_of_its_source():
    G = su_algebra(4)
    ident, aug, bad = _lagrangian_maps(2)
    instances = [
        _instance("su", build_morphism(G, G, {})),
        _instance("good-before", ident),
        _instance("planted", aug, levi=bad),
        _instance("good-after", aug, levi=ident),
    ]
    for seed in (21, 42):
        got = check_morphism_multiplicativity(instances, seed=seed)
        assert not got.passed and got.detail == "planted {}"
        assert got == sequential_multiplicativity(instances, seed=seed)
        assert got == batch_morphism_multiplicativity(instances, seed=seed)


def test_failure_named_in_instance_order_across_sources():
    # The first source comes back after the second, and its second run is
    # drawn again: the failure is named in instance order either way.
    ident2, _, bad2 = _lagrangian_maps(2)
    ident3, _, bad3 = _lagrangian_maps(3)
    for second, detail in ((bad3, "second {}"), (ident3, "third {}")):
        instances = [_instance("first", ident2), _instance("second", second),
                     _instance("third", bad2)]
        got = check_morphism_multiplicativity(instances, seed=21)
        assert not got.passed and got.detail == detail
        assert got == sequential_multiplicativity(instances, seed=21)
        assert got == batch_morphism_multiplicativity(instances, seed=21)


def test_sample_products_are_the_seeded_draw():
    # a then b from one fresh Random(seed), as a per-morphism draw makes them
    L = lagrangian_algebra(3)
    rng = random.Random(7)
    expected = []
    for _ in range(30):
        a, b = random_homogeneous(L, rng), random_homogeneous(L, rng)
        expected.append((a, b, a * b))
    assert sample_products(L, 30, 7) == expected


@pytest.mark.parametrize("seed", [21, 42, 57])
def test_streamed_suite_matches_the_batch_suite(seed):
    got = property_checks(seed=seed)
    assert all(r.passed for r in got)
    assert got == batch_property_checks(seed=seed)


def _planted_build(fid, params):
    """The certified instance, but for two plants: siegel g=4 [2,2] gets a
    non-multiplicative Levi map on its source LG(4), between its good
    restriction and the good restriction of g=4 [3,1], and unitary (2,2)
    [1:1,1:1] gets an H whose products forget the Koszul sign."""
    inst = build_family(fid, params)
    if (fid, params) == ("siegel-product", {"g": 4, "parts": [2, 2]}):
        L = inst.dual_G
        inst.levi_restriction = Morphism(
            L, L, {x.name: L.gen(x.name) for x in L.generators[:-1]})
    elif (fid, params) == ("unitary-product", {"p": 2, "q": 2, "parts": [[1, 1], [1, 1]]}):
        inst.dual_H = exterior_algebra([3, 5])
        inst.dual_H._odd_indices = ()
    return inst


@pytest.mark.parametrize("seed", [21, 42, 57])
def test_planted_failures_match_the_batch_suite(monkeypatch, seed):
    monkeypatch.setattr(dualcoh.checks, "build_family", _planted_build)
    monkeypatch.setattr(reference, "build_family", _planted_build)
    got = property_checks(seed=seed)
    assert got == batch_property_checks(seed=seed)
    failed = {r.name: r.detail for r in got if not r.passed}
    assert set(failed) == {"morphism-multiplicativity", "graded-commutativity"}, failed
    assert failed["morphism-multiplicativity"] == "siegel-product {'g': 4, 'parts': [2, 2]}"
    assert failed["graded-commutativity"].startswith("e3/e5: "), failed


def test_property_suite_holds_one_instance_at_a_time(monkeypatch):
    """When each certified instance is built, at most one earlier instance
    is still alive: the suite streams its instances."""
    refs, alive = [], []

    def recorded(fid, params):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        inst = build_family(fid, params)
        refs.append(weakref.ref(inst))
        return inst
    monkeypatch.setattr(dualcoh.checks, "build_family", recorded)
    assert all(r.passed for r in property_checks(seed=21))
    assert len(refs) == 47 and max(alive) <= 1, alive
