"""Ring builders: closed-form shapes, and the model-backed Lagrangian and
Grassmannian constructions against the direct row-reduction reference."""

import copy
from itertools import product
from math import comb

import pytest

import dualcoh.algebra
from dualcoh import (
    CapExceededError,
    InconsistentPresentationError,
    InvalidPresentationError,
    exterior_algebra,
    monomial_cap,
    poincare_polynomial,
)
from dualcoh.algebra import _enumerate_monomials, model_quotient_algebra
from dualcoh.catalog import build_family, decide_nonvanishing
from dualcoh.checks import box_partition_betti, strict_partition_betti
from dualcoh.rings import (
    RINGS,
    QTildeRing,
    SchurRing,
    _conjugate,
    clear_ring_cache,
    grassmannian_algebra,
    grassmannian_relations,
    lagrangian_algebra,
    lagrangian_relations,
    sp_group_algebra,
    su_algebra,
    su_so_algebra,
)
from reference import StraighteningModel, direct_quotient


class TestExteriorBuilders:
    def test_su_degrees(self):
        alg = su_algebra(4)
        assert [g.degree for g in alg.generators] == [3, 5, 7]
        with pytest.raises(InvalidPresentationError):
            su_algebra(1)

    def test_sp_group_degrees(self):
        assert [g.degree for g in sp_group_algebra(3).generators] == [3, 7, 11]

    def test_su_so_degrees(self):
        assert [g.degree for g in su_so_algebra(2).generators] == [5, 9]

    def test_non_int_degree_refused(self):
        for degrees in ([3.0], [3, 5.0], [True, 3], ["3"]):
            with pytest.raises(InvalidPresentationError, match="must be ints"):
                exterior_algebra(degrees)


# Each builder of RINGS with a good rank, then a bad one in each position;
# the cache already holds the good ring, which 2.0 == 2 would find.
@pytest.mark.parametrize("ring_id,good,bad", [
    ("su", (3,), [(3.0,), (True,), ("3",)]),
    ("sp-group", (2,), [(2.0,), (True,), (None,)]),
    ("su-so", (1,), [(1.0,), (True,), ("1",)]),
    ("lagrangian", (2,), [(2.0,), (True,), ("2",)]),
    ("grassmannian", (2, 2), [("2", 2), (2, 2.0), (True, 2), (2, False)]),
])
def test_builders_refuse_a_non_int_rank(ring_id, good, bad):
    build, names = RINGS[ring_id]
    assert len(names) == len(good)
    build(*good)
    for ranks in bad:
        with pytest.raises(InvalidPresentationError, match="rank . must be an int"):
            build(*ranks)


def assert_model_equals_direct(direct, fast):
    """Same basis in every degree, same normal form of every ambient monomial,
    same product of every pair of basis elements."""
    top = direct.top_degree
    assert fast.top_degree == top
    for d in range(top + 1):
        assert direct.basis(d) == fast.basis(d)
    for d in range(0, top + 1, 2):
        for m in direct._monomials(d):
            assert (direct.normal_form_monomial(m)
                    == fast.normal_form_monomial(m)), (d, m)
    basis = [m for d in range(top + 1) for m in direct.basis(d)]
    for m1 in basis:
        for m2 in basis:
            want = direct.basis_element(m1) * direct.basis_element(m2)
            got = fast.basis_element(m1) * fast.basis_element(m2)
            assert got.terms == want.terms, (m1, m2)


class TestLagrangian:
    @pytest.mark.parametrize("g", range(1, 6))
    def test_model_equals_direct_rref(self, g):
        gens = [(f"sigma{i}", 2 * i) for i in range(1, g + 1)]
        direct = direct_quotient(gens, lagrangian_relations(g), g * (g + 1))
        clear_ring_cache()
        assert_model_equals_direct(direct, lagrangian_algebra(g))

    @pytest.mark.parametrize("g", range(1, 6))
    def test_betti_against_subset_oracle(self, g):
        alg = lagrangian_algebra(g)
        assert poincare_polynomial(alg) == strict_partition_betti(g)
        assert alg.total_dimension == 2 ** g

    def test_g2_relations_match_worked_example(self):
        # spanwise: r_2 = 2 sigma2 - sigma1^2 and r_4 = sigma2^2
        rels = lagrangian_relations(2)
        assert rels == [{(0, 1): 2, (2, 0): -1}, {(0, 2): 1}]

    def test_invalid_rank(self):
        with pytest.raises(InvalidPresentationError):
            lagrangian_algebra(0)


def test_model_construction_rejects_a_wrong_relation():
    gens = [("sigma1", 2), ("sigma2", 4)]
    rels = lagrangian_relations(2)
    assert model_quotient_algebra(gens, rels, QTildeRing(2)).total_dimension == 4
    flipped = [{**rels[0], (2, 0): -rels[0][(2, 0)]}, rels[1]]
    with pytest.raises(InconsistentPresentationError):
        model_quotient_algebra(gens, flipped, QTildeRing(2))


class TestGrassmannian:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4),
                                     (3, 3)])
    def test_model_equals_direct_rref(self, p, q):
        gens, rels = grassmannian_relations(p, q)
        direct = direct_quotient(gens, rels, 2 * p * q)
        clear_ring_cache()
        assert_model_equals_direct(direct, grassmannian_algebra(p, q))

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4), (2, 5)])
    def test_betti_against_box_oracle(self, p, q):
        alg = grassmannian_algebra(p, q)
        assert poincare_polynomial(alg) == box_partition_betti(p, q)
        assert alg.total_dimension == comb(p + q, p)

    def test_projective_plane_tau_reduction(self):
        alg = grassmannian_algebra(1, 2)
        s1 = alg.gen("sigma1")
        assert alg.gen("tau1") == -s1
        assert alg.gen("tau2") == s1 * s1

    def test_p1_top_class(self):
        # tau_q^p generates the top degree at p = q = 1, with sign -1
        alg = grassmannian_algebra(1, 1)
        assert alg.gen("tau1") == -alg.gen("sigma1")

    def test_invalid_rank(self):
        with pytest.raises(InvalidPresentationError):
            grassmannian_algebra(0, 3)


class TestSchurModel:
    def test_dims_match_partition_counts(self):
        ring = SchurRing(2, 3)
        assert [len(ring.keys(2 * k)) for k in range(7)] == [1, 1, 2, 2, 2, 1, 1]

    def test_vertical_strip_pieri(self):
        ring = SchurRing(3, 3)
        # sigma_2 = e_2 (generator 1); e_2 * s_(1): vertical strips of size 2 on (1)
        out = ring.mult({(1,): 1}, 1)
        assert out == {(2, 1): 1, (1, 1, 1): 1}

    def test_horizontal_strip_pieri(self):
        ring = SchurRing(3, 3)
        # tau_2 = h_2 (generator p + 1); h_2 * s_(1) = s_(3) + s_(2,1), sign (-1)^2 = +1
        out = ring.mult({(1,): 1}, 4)
        assert out == {(3,): 1, (2, 1): 1}

    def test_horizontal_strip_odd_sign(self):
        ring = SchurRing(3, 3)
        # tau_1 = -h_1 (generator p); 2 * s_(1) * (-h_1) = -2 s_(2) - 2 s_(1,1)
        assert ring.mult({(1,): 2}, 3) == {(2,): -2, (1, 1): -2}

    def test_box_truncation(self):
        ring = SchurRing(2, 2)
        # sigma_1 = e_1 (generator 0) times s_(2,2) leaves the 2x2 box entirely
        assert ring.mult({(2, 2): 1}, 0) == {}


def _box_partitions(p, q):
    """Partitions in the p x q box by size, enumerated without the model."""
    out = {}
    for rows in product(range(q + 1), repeat=p):
        if all(a >= b for a, b in zip(rows, rows[1:])):
            out.setdefault(sum(rows), []).append(rows)
    return out


@pytest.mark.parametrize("p", range(1, 7))
def test_schur_keys_are_the_sorted_box_partitions(p):
    for q in range(1, 7):
        ring, box = SchurRing(p, q), _box_partitions(p, q)
        for n in range(p * q + 1):
            want = sorted(tuple(v for v in rows if v) for rows in box[n])
            assert ring.keys(2 * n) == want, (p, q, n)
            assert ring.keys(2 * n + 1) == []
        assert sorted(ring._keys) == list(range(0, 2 * p * q + 1, 2))


def test_conjugate_is_the_transpose_in_a_7x7_box():
    for parts in _box_partitions(7, 7).values():
        for rows in parts:
            lam = tuple(v for v in rows if v)
            counts = (sum(part >= j for part in lam) for j in range(1, 8))
            assert _conjugate(lam) == tuple(c for c in counts if c), lam
            assert _conjugate(_conjugate(lam)) == lam


def _pieri_reference(p, box, lam, i):
    """s_lam times generator i of the Schur model, from the strip conditions:
    sigma_k = e_k adds a vertical k-strip (every row grows by at most one),
    tau_k = (-1)^k h_k a horizontal one (mu_{r+1} <= lam_r)."""
    k = i + 1 if i < p else i + 1 - p
    sign = 1 if i < p else (-1) ** k
    lo = tuple(lam) + (0,) * (p - len(lam))
    out = {}
    for mu in box.get(sum(lo) + k, []):
        if any(m < l for m, l in zip(mu, lo)):
            continue
        if i < p:
            strip = all(m - l <= 1 for m, l in zip(mu, lo))
        else:
            strip = all(mu[r + 1] <= lo[r] for r in range(p - 1))
        if strip:
            out[tuple(v for v in mu if v)] = sign
    return out


@pytest.mark.parametrize("p,q", [(p, q) for q in range(1, 5) for p in range(1, q + 1)])
def test_schur_memo_matches_fresh_strips(p, q):
    box = _box_partitions(p, q)
    ring = SchurRing(p, q)
    for d in range(0, ring.top_degree + 1, 2):
        for key in ring.keys(d):
            for i in range(p + q):
                want = _pieri_reference(p, box, key, i)
                assert ring.mult({key: 1}, i) == want, (key, i)
                # the second call reads the memo; scaling must not reach it
                assert ring.mult({key: 3}, i) == {mu: 3 * c for mu, c in want.items()}
                assert ring.mult({key: 1}, i) == want


def test_schur_memo_unchanged_by_later_decisions():
    clear_ring_cache()
    params = {"p": 4, "q": 4, "parts": [[2, 2], [2, 2]]}
    first = decide_nonvanishing(build_family("unitary-product", params))
    # Gr(4,4) and Gr(2,2), which is both factors of H: two models.
    models = list({id(ring._model): ring._model for ring in dualcoh.rings._RING_CACHE.values()
                   if isinstance(ring._model, SchurRing)}.values())
    memos = copy.deepcopy([model._memo for model in models])
    assert sorted((m.p, m.q) for m in models) == [(2, 2), (4, 4)] and all(memos)
    # Callers own what mult returns: emptying it must not reach the memo.
    for model, memo in zip(models, memos):
        for lam, i in memo:
            model.mult({lam: 1}, i).clear()
    second = decide_nonvanishing(build_family("unitary-product", params))
    assert second.fundamental_class.terms == first.fundamental_class.terms
    for model, memo in zip(models, memos):
        assert {entry: model._memo[entry] for entry in memo} == memo
    clear_ring_cache()


def test_basis_build_draws_few_monomials(monkeypatch):
    # Gr(5,5) has 174,237 ambient monomials up to its top degree and 252
    # standard ones; a build that stops at the last standard monomial of
    # each degree draws a few hundred.
    drawn = []

    def counting(*args):
        for m in _enumerate_monomials(*args):
            drawn.append(m)
            yield m

    monkeypatch.setattr(dualcoh.algebra, "_enumerate_monomials", counting)
    clear_ring_cache()
    alg = grassmannian_algebra(5, 5)
    assert sum(len(alg.basis(d)) for d in range(alg.top_degree + 1)) == 252
    assert 252 <= len(drawn) <= 1000
    clear_ring_cache()


def test_grassmannian_cap_refused_at_construction():
    clear_ring_cache()
    with monomial_cap(5), pytest.raises(CapExceededError):
        grassmannian_algebra(3, 3)


@pytest.mark.parametrize("build", [
    lambda: su_algebra(10),
    lambda: sp_group_algebra(9),
    lambda: su_so_algebra(9),
    lambda: lagrangian_algebra(4),
    lambda: grassmannian_algebra(3, 3),
], ids=["su", "sp-group", "su-so", "lagrangian", "grassmannian"])
def test_cached_ring_refused_as_a_fresh_build(build):
    """A ring built at the default cap and fetched under a smaller one is
    refused with the text that building it afresh under that cap gives."""
    ring = build()
    assert build() is ring and ring.worst_count > 10
    texts = []
    for _ in range(2):
        with monomial_cap(10), pytest.raises(CapExceededError) as err:
            build()
        texts.append(str(err.value))
        clear_ring_cache()
    assert texts[0] == texts[1] == f"per-degree monomial count {ring.worst_count} exceeds cap 10"
    assert build() is not ring


@pytest.mark.parametrize("build", [
    lambda: grassmannian_algebra(14, 14),
    lambda: lagrangian_algebra(26),
    lambda: build_family("sp-in-ugg", {"g": 14}),
], ids=["Gr(14,28)", "LG(26)", "sp-in-ugg g=14"])
def test_cap_refused_before_any_key_is_listed(monkeypatch, build):
    """Gr(14, 28) has C(28, 14) = 40,116,600 box partitions and LG(26) has
    2^26 strict ones; a ring over its monomial cap is refused without
    listing any of them."""

    def refuse(model):
        raise AssertionError("key table built before the cap check")

    monkeypatch.setattr(SchurRing, "_keys", property(refuse))
    monkeypatch.setattr(QTildeRing, "_keys", property(refuse))
    clear_ring_cache()
    with pytest.raises(CapExceededError, match="exceeds cap"):
        build()


def test_ring_cache_shares_until_cleared():
    first = lagrangian_algebra(3)
    assert lagrangian_algebra(3) is first
    assert first.renamed(["alpha1", "alpha2", "alpha3"]) is not first
    assert lagrangian_algebra(3) is first
    clear_ring_cache()
    again = lagrangian_algebra(3)
    assert again is not first
    assert poincare_polynomial(again) == poincare_polynomial(first)


def _renamed(base, suffix):
    """``base``, or its renaming with ``suffix`` after each generator name."""
    return base.renamed([g.name + suffix for g in base.generators]) if suffix else base


@pytest.mark.parametrize("build,names", [
    (lambda name: _renamed(grassmannian_algebra(2, 3), name), ("", "@1", "@2")),
    (lambda name: _renamed(lagrangian_algebra(4), name), ("", "'", "''")),
])
def test_renamed_rings_share_one_build(monkeypatch, build, names):
    built = []
    orig = dualcoh.algebra.GradedAlgebra._build_model_basis

    def counting(self, d):
        built.append(d)
        return orig(self, d)

    monkeypatch.setattr(dualcoh.algebra.GradedAlgebra, "_build_model_basis", counting)
    clear_ring_cache()
    # The base and its two renamings: three rings, one basis build per degree.
    rings = [build(name) for name in names]
    bases = [[ring.basis(d) for d in range(ring.top_degree + 1)] for ring in rings]
    assert sorted(built) == list(range(rings[0].top_degree + 1))
    assert bases[1] == bases[0] and bases[2] == bases[0]
    assert len({id(ring) for ring in rings}) == 3
    # the builder's ring is cached; a renaming is a fresh ring over its tables
    assert build(names[0]) is rings[0] and build(names[1]) is not rings[1]
    base, copy_ = rings[0], rings[1]
    assert copy_._model is base._model
    first = base.generators[0].name
    renamed = copy_.generators[0].name
    assert renamed != first and copy_.generators[0].degree == base.generators[0].degree
    with pytest.raises(ValueError):
        base.gen(first) * copy_.gen(renamed)
    with pytest.raises(KeyError):
        copy_.gen(first)
    square = copy_.gen(renamed) * copy_.gen(renamed)
    assert square.terms == (base.gen(first) * base.gen(first)).terms
    [mont] = copy_.gen(renamed).terms
    assert copy_.monomial_string(mont) == f"{renamed}^1"
    assert copy_.parse_monomial(f"{renamed}^1") == mont == base.parse_monomial(f"{first}^1")
    with pytest.raises(ValueError):
        copy_.parse_monomial(f"{first}^1")
    clear_ring_cache()
    built.clear()
    fresh = build(names[1])
    assert fresh is not copy_ and fresh.basis(fresh.top_degree) == bases[0][-1]
    assert len(built) == 1
    clear_ring_cache()


@pytest.mark.parametrize("g", range(1, 9))
def test_lagrangian_keys_listed_in_product_order(g):
    # key lam lists the parts k with entry k - 1 set, in product order
    model = QTildeRing(g)
    for d in range(-1, model.top_degree + 2):
        assert model.keys(d) == [
            tuple(k for k in range(g, 0, -1) if key[k - 1])
            for key in product((0, 1), repeat=g)
            if sum(2 * k * e for k, e in enumerate(key, 1)) == d]


def _shifted_components(mu, lam):
    """Connected components of the shifted skew diagram mu/lam, by a walk
    over its boxes (row r holds columns r .. r + mu_r - 1)."""
    lo = tuple(lam) + (0,) * (len(mu) - len(lam))
    boxes = {(r, r + c) for r in range(len(mu)) for c in range(lo[r], mu[r])}
    count = 0
    while boxes:
        count += 1
        stack = [boxes.pop()]
        while stack:
            r, c = stack.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in boxes:
                    boxes.remove(nb)
                    stack.append(nb)
    return count


def _qtilde_pieri_reference(g, lam, k):
    """Q_lam * sigma_k over every strict mu inside (g, ..., 1), kept when
    mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... and |mu| = |lam| + k."""
    out = {}
    for parts in product((0, 1), repeat=g):
        mu = tuple(j for j in range(g, 0, -1) if parts[j - 1])
        lo = tuple(lam) + (0,) * (len(mu) - len(lam))
        if (sum(mu) != sum(lam) + k or len(lo) > len(mu)
                or any(m < l for m, l in zip(mu, lo))
                or any(mu[r + 1] > lo[r] for r in range(len(mu) - 1))):
            continue
        out[mu] = 2 ** (_shifted_components(mu, lam) - (len(mu) - len(lam)))
    return out


@pytest.mark.parametrize("g", range(1, 7))
def test_qtilde_memo_matches_the_pieri_reference(g):
    model = QTildeRing(g)
    for d in range(0, model.top_degree + 1, 2):
        for key in model.keys(d):
            for i in range(g):
                want = _qtilde_pieri_reference(g, key, i + 1)
                assert model.mult({key: 1}, i) == want, (key, i)
                # the second call reads the memo; scaling must not reach it
                assert model.mult({key: 3}, i) == {mu: 3 * c for mu, c in want.items()}
                assert model.mult({key: 1}, i) == want


@pytest.mark.parametrize("g", range(1, 9))
def test_qtilde_pieri_operators_commute(g):
    model = QTildeRing(g)
    for d in range(0, model.top_degree + 1, 2):
        for key in model.keys(d):
            for i in range(g):
                once = model.mult({key: 1}, i)
                for j in range(i):
                    assert model.mult(once, j) == model.mult(model.mult({key: 1}, j), i)


@pytest.mark.parametrize("g", range(1, 8))
def test_qtilde_normal_forms_match_straightening(g):
    # every ambient monomial of every degree: 8,561 of them at g = 7
    gens = [(f"sigma{i}", 2 * i) for i in range(1, g + 1)]
    want = model_quotient_algebra(gens, lagrangian_relations(g), StraighteningModel(g))
    got = model_quotient_algebra(gens, lagrangian_relations(g), QTildeRing(g))
    for d in range(0, got.top_degree + 1, 2):
        assert got.basis(d) == want.basis(d)
        for m in got._monomials(d):
            assert got.normal_form_monomial(m) == want.normal_form_monomial(m), m
