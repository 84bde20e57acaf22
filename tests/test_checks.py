"""The check-suite plumbing and its independent enumerators."""

import re

import pytest

from dualcoh.checks import (
    box_partition_betti,
    check_grassmannian_poincare,
    check_gysin_soundness,
    check_grassmannian_relation_expansion,
    check_lagrangian_poincare,
    check_lagrangian_relation_expansion,
    instance_checks,
    run_suites,
    strict_partition_betti,
)
from dualcoh.catalog import decide_nonvanishing, family_siegel, family_sl_odd_real


def test_strict_partition_enumerator():
    # (1+t^2)(1+t^4)(1+t^6) expanded by hand
    assert strict_partition_betti(3) == [1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1]
    assert sum(strict_partition_betti(6)) == 64


def test_box_partition_enumerator():
    # Gaussian binomial [5 choose 2] in t^2
    assert box_partition_betti(2, 3) == [1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1]
    assert sum(box_partition_betti(3, 3)) == 20


def test_relation_expansions_small():
    assert check_lagrangian_relation_expansion(gmax=3).passed
    assert check_grassmannian_relation_expansion(pq_max=4).passed


def test_passing_oracle_details_carry_no_times():
    # a build time in a passing detail would make `dualcoh check --json`
    # differ between two runs
    for result in (check_lagrangian_poincare(gmax=3), check_grassmannian_poincare(pq_max=3)):
        assert result.passed
        assert not re.search(r"\d\.\d+s", result.detail), result.detail


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
