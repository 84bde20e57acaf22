"""The monomial-layer kernels against the versions they replaced.

Each kernel must give the same output in the same order as its reference in
``reference.py``: the per-ring reach table against a table built per degree,
the memoised Koszul signs against the list-built ones, the pruned Pieri
strips against the walks that explore every branch (a tau-step's
horizontal strips as a set, since it reaches them through conjugation).
"""

import random

import pytest

import dualcoh.algebra
from dualcoh import exterior_algebra, pairing, poincare_dual, tensor_product
from dualcoh.algebra import (
    Element,
    Generator,
    GradedAlgebra,
    pairing_matrix,
)
from dualcoh.rings import (
    SchurRing,
    _vertical_strips,
    clear_ring_cache,
    grassmannian_algebra,
    lagrangian_algebra,
    sp_group_algebra,
    su_algebra,
)
from reference import (
    horizontal_strips,
    koszul_product,
    list_free_mul,
    list_product,
    naive_product,
    per_degree_monomials,
    vertical_strips,
)

# ------------------------------------------------------------- enumeration


def _random_presentation(kind, rng):
    k = rng.randint(1, 6)
    if kind == "odd":
        degrees = [rng.randrange(1, 12, 2) for _ in range(k)]
    elif kind == "even":
        degrees = [rng.randrange(2, 12, 2) for _ in range(k)]
    else:
        degrees = [rng.randint(1, 7) for _ in range(k)]
    top = rng.randint(0, 30)
    gens = [Generator(f"x{i}", d) for i, d in enumerate(degrees)]
    return GradedAlgebra("quotient", gens, (), top)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("kind", ["odd", "even", "mixed"])
def test_every_degree_walks_as_the_per_degree_table(kind, order):
    rng = random.Random(f"reach-{kind}-{order}")
    for _ in range(30):
        alg = _random_presentation(kind, rng)
        degrees = list(range(alg.top_degree + 1))
        if order == "descending":
            degrees.reverse()
        elif order == "shuffled":
            rng.shuffle(degrees)
        for d in degrees:
            want = list(per_degree_monomials(alg._degrees, alg._parities, d))
            assert list(alg._monomials(d)) == want, (alg._degrees, alg.top_degree, d)


def test_one_reach_table_per_ring(monkeypatch):
    # Gr(5,5) has 26 nonzero degrees (0, 2, ..., 50); a table per degree
    # would be built 26 times.
    built = []
    table = dualcoh.algebra._reach_table

    def counting(*args):
        built.append(args)
        return table(*args)

    monkeypatch.setattr(dualcoh.algebra, "_reach_table", counting)
    clear_ring_cache()
    alg = grassmannian_algebra(5, 5)
    assert sum(len(alg.basis(d)) for d in range(alg.top_degree + 1)) == 252
    assert len(built) == 1
    renamed = alg.renamed([g.name + "'" for g in alg.generators])
    assert renamed._reach is alg._reach and renamed.basis(50) == alg.basis(50)
    su = su_algebra(6)
    assert sum(len(su.basis(d)) for d in range(su.top_degree + 1)) == 2 ** 5
    assert len(built) == 2
    clear_ring_cache()


# ------------------------------------------------------------ Koszul signs

KOSZUL_RINGS = {
    "exterior": lambda: su_algebra(5),
    "exterior-sp": lambda: sp_group_algebra(3),
    "even": lambda: grassmannian_algebra(2, 3),
    "lagrangian": lambda: lagrangian_algebra(3),
    "mixed": lambda: tensor_product(su_algebra(4), grassmannian_algebra(2, 2)),
}


def _all_basis(alg):
    return [m for d in alg.nonzero_degrees() for m in alg.basis(d)]


@pytest.mark.parametrize("kind", sorted(KOSZUL_RINGS))
def test_free_mul_matches_the_list_signs(kind):
    alg = KOSZUL_RINGS[kind]()
    basis = _all_basis(alg)
    for m1 in basis:
        for m2 in basis:
            want = list_free_mul(alg, m1, m2)
            assert alg._free_mul(m1, m2) == want == koszul_product(alg, m1, m2), (m1, m2)


def _random_element(alg, rng, terms=5):
    basis = _all_basis(alg)
    out = {}
    for _ in range(terms):
        c = rng.randint(-3, 3)
        if c:
            out[basis[rng.randrange(len(basis))]] = c
    return Element(alg, out)


@pytest.mark.parametrize("kind", sorted(KOSZUL_RINGS))
def test_products_match_in_order(kind):
    alg = KOSZUL_RINGS[kind]()
    rng = random.Random(f"products-{kind}")
    for _ in range(80):
        a, b = _random_element(alg, rng), _random_element(alg, rng)
        got = alg._mul_elements(a, b)
        want = list_product(a, b)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got == naive_product(a, b)


@pytest.mark.parametrize("kind", sorted(KOSZUL_RINGS))
def test_pairing_matrix_matches_naive_pairings(kind):
    alg = KOSZUL_RINGS[kind]()
    top = alg.canonical_top_monomial()
    for d in range(alg.top_degree + 1):
        want = []
        for u in alg.basis(d):
            row = []
            for w in alg.basis(alg.top_degree - d):
                hit = koszul_product(alg, u, w)
                row.append(hit[0] * alg.normal_form_monomial(hit[1]).get(top, 0) if hit else 0)
                assert row[-1] == naive_product(alg.basis_element(u),
                                                alg.basis_element(w)).coefficient(top)
            want.append(row)
        assert pairing_matrix(alg, d) == want, d


@pytest.mark.parametrize("degrees", [[3, 5, 7, 9], [3, 7, 11], [1, 3, 5, 7, 9]])
def test_exterior_dual_matches_naive_complements(degrees):
    alg = exterior_algebra(degrees)
    rng = random.Random(f"dual-{degrees}")
    for e in range(alg.top_degree + 1):
        basis = alg.basis(e)
        phi = {w: rng.randint(-3, 3) for w in basis}
        xi = poincare_dual(alg, phi, e)
        want = {}
        for w in basis:
            if phi[w]:
                wc = tuple(1 - x for x in w)
                want[wc] = phi[w] * koszul_product(alg, wc, w)[0]
        assert list(xi.terms.items()) == list(want.items()), e
        for w in basis:
            assert pairing(xi, alg.basis_element(w)) == phi[w]


# ------------------------------------------------------------- Pieri strips


@pytest.mark.parametrize("p", range(1, 6))
def test_pruned_strips_match_the_full_walks(p):
    # A tau-step conjugates vertical strips, so only the set of its keys is
    # pinned: mult sums the step into a dict, and every output is sorted.
    for q in range(1, 7):
        model = SchurRing(p, q)
        for d in range(0, model.top_degree + 1, 2):
            for lam in model.keys(d):
                for k in range(p + 2):
                    assert _vertical_strips(p, q, lam, k) == vertical_strips(p, q, lam, k), (
                        p, q, lam, k)
                for k in range(1, q + 1):
                    want = sorted((mu, (-1) ** k) for mu in horizontal_strips(p, q, lam, k))
                    assert sorted(model._step(lam, p + k - 1).items()) == want, (p, q, lam, k)
