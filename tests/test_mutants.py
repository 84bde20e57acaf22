"""The mutant matrix: faults planted in the engine, and what catches them.

Each row is a context manager that replaces one function with a faulty
version and clears the ring cache on entry and on exit, so that no ring
built before the fault hides it and none built under it outlives it.  A
row names the checks of ``checks.run_suites(seed=21)`` that must fail
under its fault, or the exception that must end the run.

Faults that no check catches yet (the ghost divisibility, the ``sl-*``
kernel ideal, s_(2,1)*tau_1) have no row: catching them needs new
instance checks.
"""

from contextlib import contextmanager

import pytest

import dualcoh.catalog
import dualcoh.morphisms
from dualcoh import InconsistentPresentationError, InvalidPresentationError
from dualcoh.algebra import GradedAlgebra
from dualcoh.checks import run_suites
from dualcoh.rings import QTildeRing, clear_ring_cache

SEED = 21


def _mutant(owner, name, fault):
    """A context manager that sets ``owner.name`` to ``fault(real)``."""
    @contextmanager
    def planted():
        real = getattr(owner, name)
        clear_ring_cache()
        setattr(owner, name, fault(real))
        try:
            yield
        finally:
            setattr(owner, name, real)
            clear_ring_cache()
    return planted


def _qtilde_21_sigma3(step):
    """Q-tilde_(2,1) * sigma_3 with its first coefficient one too large."""
    def faulty(self, lam, i):
        out = step(self, lam, i)
        if lam == (2, 1) and i == 2:
            out[next(iter(out))] += 1
        return out
    return faulty


def _phi_undivided(phi_by_halves):
    """phi not divided by c, the target's top-monomial coefficient."""
    def faulty(morphism):
        _, c = morphism.target._top_class()
        return {w: v * c for w, v in phi_by_halves(morphism).items()}
    return faulty


def _exterior_dual_sign_1(dual_sign):
    """s_k = 1 for every key of an exterior ring."""
    return lambda self, key: 1 if self.kind == "exterior" else dual_sign(self, key)


def _tensor_step_unweighted(class_of_product):
    """A tensor ring's class step with every term's coefficient taken as 1."""
    def faulty(self, cls, terms):
        if self._factors is not None:
            terms = dict.fromkeys(terms, 1)
        return class_of_product(self, cls, terms)
    return faulty


def _total_classes_short(total_class_images):
    """The product of the factors' total classes truncated one index short,
    so the top image is missing and goes to zero."""
    return lambda H, factors, classes, name, top: total_class_images(
        H, factors, classes, name, top - 1)


FAILING_CHECKS = {
    "qtilde-21-sigma3": (_mutant(QTildeRing, "_step", _qtilde_21_sigma3),
                         {"associativity", "morphism-multiplicativity", "gysin-soundness"}),
    "phi-undivided": (_mutant(dualcoh.morphisms, "_phi_by_halves", _phi_undivided),
                      {"gysin-soundness"}),
}

ENDING_ERRORS = {
    "exterior-dual-sign-1": (
        _mutant(GradedAlgebra, "_dual_sign", _exterior_dual_sign_1),
        InconsistentPresentationError, "dual basis of degree 10 does not pair to the identity"),
    "tensor-step-unweighted": (
        _mutant(GradedAlgebra, "_class_of_product", _tensor_step_unweighted),
        InvalidPresentationError, "images violate the degree-2 relation"),
    "total-classes-short": (
        _mutant(dualcoh.catalog, "_total_class_images", _total_classes_short),
        InvalidPresentationError, "images violate the degree-4 relation"),
}


def test_unmutated_suites_pass():
    results = run_suites(seed=SEED)
    assert len(results) == 19 and [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("row", sorted(FAILING_CHECKS))
def test_mutant_fails_its_checks(row):
    planted, failing = FAILING_CHECKS[row]
    with planted():
        results = run_suites(seed=SEED)
    assert len(results) == 19
    assert {r.name for r in results if not r.passed} == failing


@pytest.mark.parametrize("row", sorted(ENDING_ERRORS))
def test_mutant_ends_the_run(row):
    planted, error, message = ENDING_ERRORS[row]
    with planted(), pytest.raises(error, match=message):
        run_suites(seed=SEED)


def test_each_row_patches_one_function_and_restores_it():
    rows = [planted for planted, _ in FAILING_CHECKS.values()]
    rows += [planted for planted, _, _ in ENDING_ERRORS.values()]
    owners = [(QTildeRing, "_step"), (dualcoh.morphisms, "_phi_by_halves"),
              (GradedAlgebra, "_dual_sign"), (GradedAlgebra, "_class_of_product"),
              (dualcoh.catalog, "_total_class_images")]
    real = [getattr(owner, name) for owner, name in owners]
    patched = []
    for planted in rows:
        with planted():
            now = [getattr(owner, name) for owner, name in owners]
            patched += [i for i, (f, g) in enumerate(zip(now, real)) if f is not g]
        assert all(getattr(owner, name) is f for (owner, name), f in zip(owners, real))
    assert sorted(patched) == list(range(len(owners)))
