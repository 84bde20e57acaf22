"""Family constructors, decision procedures, and certificates."""

import inspect
import random
import sys
from fractions import Fraction

import pytest

import dualcoh
import dualcoh.algebra
import dualcoh.morphisms
import dualcoh.rings
from dualcoh import (
    CapExceededError,
    InvalidPresentationError,
    build_family,
    build_morphism,
    decide_ghost,
    decide_nonvanishing,
    exterior_algebra,
    family_siegel,
    family_sl_imag_sp,
    family_sl_odd_real,
    family_sp_in_ugg,
    family_unitary,
    ideal_basis_in_degree,
    is_divisible,
    monomial_cap,
    pairing,
    pairs_nontrivially_with_ideal,
    poincare_dual,
    siegel_theta,
    tensor_product,
)
from dualcoh.algebra import Element, GradedAlgebra, _by_dual, _contract, pairing_matrix
from dualcoh.catalog import (
    FAMILIES,
    FAMILY_ALIASES,
    FAMILY_IDS,
    _divisible_by_generator,
    sweep_parameter_list,
    two_part_partitions,
    unitary_decompositions,
)
from dualcoh.checks import catalog_sweep_specs
from dualcoh.linalg import SparseRREF
from dualcoh.morphisms import (
    Morphism,
    _phi_by_halves,
    apply,
    gysin_fundamental_class,
    random_homogeneous,
)
from dualcoh.rings import (
    RINGS,
    clear_ring_cache,
    grassmannian_algebra,
    lagrangian_algebra,
    su_algebra,
)
from reference import family_sl_imag_sp as sl_imag_sp_oracle
from reference import family_sl_odd_real as sl_odd_real_oracle
from reference import (
    batch_sweep_algebras,
    dense_pairing_matrix,
    gysin_by_full_images,
    phi_by_full_images,
    product_composition_image,
    witness_by_products,
)


class TestSlImagSp:
    def test_n2_shape_and_verdict(self):
        inst = family_sl_imag_sp(2)
        assert [g.degree for g in inst.dual_G.generators] == [3, 5, 7]
        assert [g.degree for g in inst.dual_H.generators] == [3, 7]
        v = decide_nonvanishing(inst)
        assert v.fundamental_class == -inst.dual_G.gen("e5")
        assert v.nonvanishing
        assert v.nonvanishing_witness == inst.dual_G.gen("e3") * inst.dual_G.gen("e7")

    def test_n3_closed_form(self):
        inst = family_sl_imag_sp(3)
        v = decide_nonvanishing(inst)
        G = inst.dual_G
        expected = G.gen("e5") * G.gen("e9")
        assert v.fundamental_class in (expected, -expected)

    def test_n2_ghost_certificate(self):
        inst = family_sl_imag_sp(2)
        v = decide_nonvanishing(inst)
        cert = v.ghost
        assert cert.not_compactly_supported
        assert cert.levi_restriction_in_levi_kernel
        assert cert.is_ghost
        assert "e7" in cert.discrepancy_note and "e5" in cert.discrepancy_note
        # re-verify both booleans through the core primitives
        G = inst.dual_G
        assert is_divisible(v.fundamental_class, G.generator("e7")) is None
        levi_image = apply(inst.levi_restriction, v.fundamental_class)
        levi = inst.levi_restriction.target
        assert is_divisible(levi_image, levi.generator("e5")) is not None

    def test_n1_degenerate_no_ghost_data(self):
        inst = family_sl_imag_sp(1)
        assert inst.levi_restriction is None
        v = decide_nonvanishing(inst)
        assert v.nonvanishing and v.ghost is None
        assert decide_ghost(inst, v.fundamental_class, v.nonvanishing) is None

    def test_levi_kernel_matches_orthogonality(self):
        # for the exterior top-generator ideal, "pairs trivially with the
        # ideal" and "divisible by the generator" agree
        inst = family_sl_imag_sp(2)
        levi = inst.levi_restriction.target
        image = apply(inst.levi_restriction,
                      decide_nonvanishing(inst).fundamental_class)
        divisible = is_divisible(image, levi.generator("e5")) is not None
        pairs = pairs_nontrivially_with_ideal(image, [levi.gen(inst.levi_franke_generator)])
        assert divisible == (pairs is None)


class TestSlOddReal:
    def test_n1(self):
        inst = family_sl_odd_real(1)
        v = decide_nonvanishing(inst)
        assert v.fundamental_class == inst.dual_G.gen("e3")
        assert v.nonvanishing and v.ghost.is_ghost

    def test_n2_not_divisible_by_top(self):
        inst = family_sl_odd_real(2)
        v = decide_nonvanishing(inst)
        G = inst.dual_G
        expected = G.gen("e3") * G.gen("e7")
        assert v.fundamental_class in (expected, -expected)
        assert is_divisible(v.fundamental_class, G.generator("e9")) is None
        assert v.nonvanishing and v.ghost.is_ghost
        assert "e9" in v.ghost.discrepancy_note and "e7" in v.ghost.discrepancy_note


def _ring_shape(alg):
    return [(g.name, g.degree) for g in alg.generators]


def _images(morphism):
    return {name: v.terms for name, v in morphism.generator_images.items()}


@pytest.mark.parametrize("build,oracle", [(family_sl_imag_sp, sl_imag_sp_oracle),
                                          (family_sl_odd_real, sl_odd_real_oracle)],
                         ids=["sl-imag-sp", "sl-odd-real"])
def test_shared_sl_constructor_matches_the_two_written_out(build, oracle):
    for n in range(1, 9):
        got, want = build(n), oracle(n)
        assert (got.family_id, got.parameters) == (want.family_id, want.parameters)
        assert _ring_shape(got.dual_G) == _ring_shape(want.dual_G)
        assert _ring_shape(got.dual_H) == _ring_shape(want.dual_H)
        assert _images(got.restriction) == _images(want.restriction)
        assert [v.terms for v in got.franke_ideal] == [v.terms for v in want.franke_ideal]
        assert got.compact_support_generator == want.compact_support_generator
        assert got.levi_franke_generator == want.levi_franke_generator
        assert got.notes == want.notes
        assert (got.levi_restriction is None) == (want.levi_restriction is None) == (
            build is family_sl_imag_sp and n == 1)
        if want.levi_restriction is not None:
            assert (_ring_shape(got.levi_restriction.target)
                    == _ring_shape(want.levi_restriction.target))
            assert _images(got.levi_restriction) == _images(want.levi_restriction)
        vg, vw = decide_nonvanishing(got), decide_nonvanishing(want)
        assert vg.fundamental_class.terms == vw.fundamental_class.terms
        assert vg.nonvanishing == vw.nonvanishing
        assert (vg.nonvanishing_witness.terms == vw.nonvanishing_witness.terms
                if vw.nonvanishing else vg.nonvanishing_witness is None)
        assert (vg.ghost, vg.betti_G, vg.betti_H) == (vw.ghost, vw.betti_G, vw.betti_H)


@pytest.mark.parametrize("build,oracle", [(family_sl_imag_sp, sl_imag_sp_oracle),
                                          (family_sl_odd_real, sl_odd_real_oracle)],
                         ids=["sl-imag-sp", "sl-odd-real"])
def test_shared_sl_constructor_refuses_as_the_two_written_out(monkeypatch, build, oracle):
    # G, then H, then the Levi: a cap stops the same ring in both.  The caps
    # fall and share one ring cache, so the shared constructor mostly fetches
    # rings that the oracle built under a larger cap, while the oracle
    # always builds afresh.
    refused_on_hit = []
    refuse = dualcoh.rings.refuse_over_cap

    def recording(worst):
        try:
            refuse(worst)
        except CapExceededError:
            refused_on_hit.append(worst)
            raise

    def outcome(f, n, cap):
        try:
            with monomial_cap(cap):
                f(n)
        except (CapExceededError, InvalidPresentationError) as exc:
            return type(exc), str(exc)
        return None

    monkeypatch.setattr(dualcoh.rings, "refuse_over_cap", recording)
    clear_ring_cache()
    refused = 0
    for n in range(0, 9):
        for cap in (40, 10, 5, 3, 2, 1):
            shared = outcome(build, n, cap)
            clear_ring_cache()
            assert outcome(oracle, n, cap) == shared, (n, cap)
            refused += shared is not None
    assert refused > 20 and len(refused_on_hit) >= 3
    clear_ring_cache()


def test_family_rings_built_once_whatever_the_cap():
    big = 10**9
    with monomial_cap(big):
        first = build_family("sp-in-ugg", {"g": 6})
    with pytest.raises(CapExceededError, match="exceeds cap 200000$"):
        build_family("sp-in-ugg", {"g": 6})
    with monomial_cap(big):
        again = build_family("sp-in-ugg", {"g": 6})
    assert again.dual_G is first.dual_G and again.dual_H is first.dual_H


def test_no_builder_takes_a_cap():
    """The cap is a per-command setting (``monomial_cap``), never an argument."""
    builders = [getattr(dualcoh, name) for name in dualcoh.__all__]
    builders += [build for build, _ in RINGS.values()]
    builders += [family.build for family in FAMILIES.values()]
    checked = 0
    for fn in filter(callable, builders):
        try:
            params = inspect.signature(fn).parameters
        except ValueError:  # a builtin without a signature
            continue
        assert "monomial_cap" not in params, fn
        checked += 1
    assert checked >= 40


class TestGhostDivisibility:
    def test_product_test_matches_is_divisible(self):
        cases = []
        for inst in ([family_sl_imag_sp(n) for n in range(2, 7)]
                     + [family_sl_odd_real(n) for n in range(1, 6)]):
            fc = gysin_fundamental_class(inst.restriction)
            cases.append((fc, inst.compact_support_generator))
            cases.append((apply(inst.levi_restriction, fc), inst.levi_franke_generator))
        rng = random.Random(17)
        for alg in (su_algebra(5), su_algebra(6)):
            for _ in range(40):
                v = random_homogeneous(alg, rng)
                name = rng.choice(alg.generators).name
                cases += [(v, name), (alg.gen(name) * v, name)]
        divisible = 0
        for v, name in cases:
            expected = is_divisible(v, name) is not None
            assert _divisible_by_generator(v, name) == expected, (v, name)
            divisible += expected
        assert 0 < divisible < len(cases)

    def test_non_exterior_ring_refused(self):
        L = lagrangian_algebra(2)
        with pytest.raises(InvalidPresentationError, match="exterior"):
            _divisible_by_generator(L.gen("sigma1"), "sigma1")


class TestSiegel:
    def test_g2_verdict_and_theta(self):
        inst = family_siegel(2, [1, 1])
        v = decide_nonvanishing(inst)
        G = inst.dual_G
        assert v.fundamental_class == G.gen("sigma1")
        assert v.nonvanishing
        assert v.nonvanishing_witness == G.gen("sigma2")
        theta = siegel_theta(inst)
        assert theta == G.gen("sigma2")
        top = G.basis_element(G.canonical_top_monomial())
        assert theta * v.fundamental_class == top

    def test_g3_21_theta_product_nonzero(self):
        inst = family_siegel(3, [2, 1])
        theta = siegel_theta(inst)
        G = inst.dual_G
        assert theta == G.gen("sigma3") * G.gen("sigma1")
        v = decide_nonvanishing(inst)
        full = G.gen("sigma1") * G.gen("sigma2") * G.gen("sigma3")
        prod = theta * v.fundamental_class
        assert not prod.is_zero()
        mont, c = next(iter(full.terms.items()))
        lam = Fraction(prod.coefficient(mont), c)
        assert lam != 0 and prod == lam * full

    def test_more_than_six_parts(self):
        # factor i's sigma_k is named sigma_k@i, however many factors
        params = {"g": 8, "parts": [2, 1, 1, 1, 1, 1, 1]}
        inst = family_siegel(**params)
        names = [g.name for g in inst.dual_H.generators]
        assert names[:3] == ["sigma1@1", "sigma2@1", "sigma1@2"] and names[-1] == "sigma1@7"
        assert len(set(names)) == len(names) == 8
        want = _reference_images("siegel-product", params, inst.dual_H)
        assert inst.restriction.generator_images == want
        v = decide_nonvanishing(inst)
        assert v.nonvanishing and not v.fundamental_class.is_zero()

    def test_invalid_partition(self):
        with pytest.raises(InvalidPresentationError):
            family_siegel(2, [2, 1])
        with pytest.raises(InvalidPresentationError):
            family_siegel(3, [1, 2])

    @pytest.mark.parametrize("parts", [[2.0, 2.0], [2, Fraction(2)], ["2", "2"], [True, 3]])
    def test_non_integer_parts_refused(self, parts):
        with pytest.raises(InvalidPresentationError, match="positive integers"):
            family_siegel(4, parts)

    def test_multi_part_exploratory(self):
        inst = family_siegel(3, [1, 1, 1])
        assert "exploratory" in inst.notes
        assert decide_nonvanishing(inst).nonvanishing
        with pytest.raises(InvalidPresentationError):
            siegel_theta(inst)

    def test_ghost_absent(self):
        inst = family_siegel(2, [1, 1])
        v = decide_nonvanishing(inst)
        assert decide_ghost(inst, v.fundamental_class, v.nonvanishing) is None


class TestUnitary:
    def test_hyperplane_case(self):
        inst = family_unitary(1, 2, [(1, 1)])
        v = decide_nonvanishing(inst)
        assert v.fundamental_class == inst.dual_G.gen("sigma1")
        assert v.nonvanishing
        assert inst.notes["tau_shortcut_holds"] is False
        assert "q_deficit" in inst.notes

    def test_p1q1_identity_embedding(self):
        inst = family_unitary(1, 1, [(1, 1)])
        v = decide_nonvanishing(inst)
        assert v.fundamental_class == inst.dual_G.one()
        assert v.nonvanishing
        assert inst.notes["tau_shortcut_holds"] is True

    def test_full_q_shortcut_is_product_of_top_taus(self):
        inst = family_unitary(2, 2, [(1, 1), (1, 1)])
        assert inst.notes["tau_shortcut_holds"] is True
        H = inst.dual_H
        expected = H.gen("tau1@1") * H.gen("tau1@2")
        assert apply(inst.restriction, inst.dual_G.gen("tau2")) == expected

    def test_deficit_tau_q_restricts_to_zero(self):
        inst = family_unitary(2, 3, [(1, 1), (1, 1)])
        assert apply(inst.restriction, inst.dual_G.gen("tau3")).is_zero()
        assert inst.notes["tau_shortcut_holds"] is False
        assert decide_nonvanishing(inst).nonvanishing

    def test_constraint_violations(self):
        with pytest.raises(InvalidPresentationError):
            family_unitary(2, 2, [(1, 1)])          # sum p_i != p
        with pytest.raises(InvalidPresentationError):
            family_unitary(2, 2, [(1, 2), (1, 1)])  # sum q_i > q
        with pytest.raises(InvalidPresentationError):
            family_unitary(3, 2, [(3, 2)])           # p > q

    @pytest.mark.parametrize("parts", [[(1.9, 1.5), (1, 1)], [(1.0, 1), (1, 1)],
                                       [("1", "1"), (1, 1)], [(1, True), (1, 1)]])
    def test_non_integer_parts_refused(self, parts):
        with pytest.raises(InvalidPresentationError, match="positive integers"):
            family_unitary(2, 2, parts)

    @pytest.mark.parametrize("build, args", [
        (family_unitary, (2, 2, [(1, 1, 1), (1, 1)])),
        (family_unitary, (2, 2, [1, 1])),
        (family_unitary, (2, 2, 3)),
        (family_unitary, (2, 2, [[2]])),
        (family_siegel, (3, 3)),
        (family_siegel, (3, [(2, 1)])),
        (family_siegel, (3, "21")),
    ], ids=["triple", "bare-ints", "not-a-list", "single", "siegel-int",
            "siegel-pair", "siegel-str"])
    def test_malformed_parts_refused(self, build, args):
        with pytest.raises(InvalidPresentationError, match="positive integers"):
            build(*args)

    def test_franke_ideal_generators(self):
        inst = family_unitary(2, 3, [(2, 3)])
        G = inst.dual_G
        assert inst.franke_ideal == [G.gen("sigma2"), G.gen("tau3")]


class TestSpInUgg:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_nonvanishing(self, g):
        inst = family_sp_in_ugg(g)
        v = decide_nonvanishing(inst)
        assert v.nonvanishing

    def test_g1_unit_class(self):
        inst = family_sp_in_ugg(1)
        v = decide_nonvanishing(inst)
        assert v.fundamental_class == inst.dual_G.one()

    def test_g2_tau_wedge_generates_top(self):
        inst = family_sp_in_ugg(2)
        v = decide_nonvanishing(inst)
        G = inst.dual_G
        wedge = v.fundamental_class * G.gen("tau1") * G.gen("tau2")
        top = G.canonical_top_monomial()
        assert not wedge.is_zero()
        assert set(wedge.terms) == {top}


class TestDecisionMachinery:
    def test_synthetic_false_verdict(self):
        # replacing the dual class by the ideal generator forces orthogonality
        inst = family_sl_imag_sp(2)
        G = inst.dual_G
        assert pairs_nontrivially_with_ideal(G.gen("e7"), inst.franke_ideal) is None

    def test_witness_lies_in_ideal_span(self):
        inst = family_sl_imag_sp(3)
        v = decide_nonvanishing(inst)
        du = inst.dual_G.top_degree - v.fundamental_class.homogeneous_degree()
        basis = ideal_basis_in_degree(inst.franke_ideal, du)
        assert v.nonvanishing_witness in basis
        assert pairing(v.fundamental_class, v.nonvanishing_witness) != 0

    def test_build_family_dispatch(self):
        inst = build_family("siegel-product", {"g": 2, "parts": [1, 1]})
        assert inst.family_id == "siegel-product"
        with pytest.raises(InvalidPresentationError):
            build_family("nonsense", {})


def _in_span(alg, elem, span, degree):
    pos = alg.basis_positions(degree)
    rr = SparseRREF()
    for u in span:
        rr.add({pos[m]: c for m, c in u.terms.items()})
    return not rr.reduce({pos[m]: c for m, c in elem.terms.items()})


def _refuse(*args, **kwargs):
    raise AssertionError("the witness search row-reduced")


class TestWitnessSearchDifferential:
    """pairs_nontrivially_with_ideal against the echelon basis of
    ideal_basis_in_degree and against the walk that forms and pairs every
    spanning product, over the certified sweep."""

    @staticmethod
    def _agree(monkeypatch, v, ideal):
        """Assert the three agree on v, and that the search forms no product
        but the witness and, in an exterior ring, one v*g for each nonzero
        generator g it tries; True when the ideal's degree-du piece is
        nonzero."""
        alg = v.algebra
        du = alg.top_degree - v.homogeneous_degree()
        basis = ideal_basis_in_degree(ideal, du)
        expected = witness_by_products(v, ideal)
        products = []
        mul = GradedAlgebra._mul_elements

        def counted(self, a, b):
            products.append(b)
            return mul(self, a, b)

        with monkeypatch.context() as patch:
            patch.setattr(dualcoh.algebra, "SparseRREF", _refuse)
            patch.setattr(dualcoh.algebra, "ideal_basis_in_degree", _refuse)
            patch.setattr(GradedAlgebra, "_mul_elements", counted)
            u = pairs_nontrivially_with_ideal(v, ideal)
        assert u == expected
        tried = _generators_tried(v, ideal, u) if alg._model is None else 0
        assert len(products) == tried + (u is not None)
        assert (u is None) == all(pairing(v, b) == 0 for b in basis)
        if u is not None:
            assert pairing(v, u) != 0
            assert _in_span(alg, u, basis, du)
        return bool(basis)

    def test_sweep_classes_random_elements_and_negatives(self, monkeypatch):
        rng = random.Random(20040913)
        seen, randoms, negatives = set(), 0, 0
        for fid, params in catalog_sweep_specs():
            inst = build_family(fid, params)
            fc = decide_nonvanishing(inst).fundamental_class
            self._agree(monkeypatch, fc, inst.franke_ideal)
            G = inst.dual_G
            if id(G) in seen:
                continue
            seen.add(id(G))
            for _ in range(6):
                v = random_homogeneous(G, rng)
                if not v.is_zero():
                    randoms += 1
                    self._agree(monkeypatch, v, inst.franke_ideal)
            if len(inst.franke_ideal) != 1:
                continue
            # an odd exterior generator, or sigma_g in the Lagrangian ring:
            # g*g = 0, so every multiple of g is orthogonal to (g)
            (g,) = inst.franke_ideal
            assert (g * g).is_zero()
            for _ in range(6):
                v = g * random_homogeneous(G, rng)
                if v.is_zero():
                    continue
                assert pairs_nontrivially_with_ideal(v, [g]) is None
                negatives += self._agree(monkeypatch, v, [g])
        assert randoms >= 50 and negatives >= 10, (randoms, negatives)

    def test_sl_families_up_to_n8(self, monkeypatch):
        for n in range(1, 9):
            for inst in (family_sl_imag_sp(n), family_sl_odd_real(n)):
                fc = decide_nonvanishing(inst).fundamental_class
                assert inst.dual_G.kind == "exterior"
                self._agree(monkeypatch, fc, inst.franke_ideal)

    def test_random_ideals_in_exterior_rings(self, monkeypatch):
        rng = random.Random(19)
        hits = misses = 0
        for _ in range(60):
            degrees = sorted(rng.sample(range(1, 16, 2), rng.randint(2, 5)))
            alg = exterior_algebra(degrees)
            v = random_homogeneous(alg, rng)
            if v.is_zero():
                continue
            ideal = [random_homogeneous(alg, rng) for _ in range(rng.randint(1, 3))]
            self._agree(monkeypatch, v, ideal)
            if pairs_nontrivially_with_ideal(v, ideal) is None:
                misses += 1
            else:
                hits += 1
        assert hits >= 15 and misses >= 15, (hits, misses)

    def test_sp_in_ugg_g6(self, monkeypatch):
        with monomial_cap(2_000_000):
            inst = family_sp_in_ugg(6)
        fc = decide_nonvanishing(inst).fundamental_class
        assert self._agree(monkeypatch, fc, inst.franke_ideal)

    def test_contraction_is_c_times_the_pairing(self):
        """On every ring of the sweep (exterior, model-backed, or a tensor
        product of them), on tensor products that mix exterior and
        Lagrangian factors, and for every complementary degree pair,
        _contract(class(a), _by_dual(class(b))) is C times the pairing: C
        the product, over the factors, of the model coefficient of the
        canonical top monomial (1 for an exterior factor)."""
        rng = random.Random(17)
        instances = [build_family(fid, params) for fid, params in catalog_sweep_specs()]
        rings = batch_sweep_algebras(instances)
        exterior = sum(alg.kind == "exterior" for alg in rings)
        tensors = sum(alg._factors is not None for alg in rings)
        assert exterior >= 8 and len(rings) - exterior - tensors >= 10 and tensors >= 20
        E, L = exterior_algebra([3, 5, 7]), lagrangian_algebra(2)
        rings += [tensor_product(E, exterior_algebra([1, 5])), tensor_product(E, L),
                  tensor_product(L, E), tensor_product(tensor_product(E, L), E)]
        for alg in rings:
            C = 1
            for leaf in _leaves(alg):
                if leaf._model is not None:
                    [top_key] = leaf._model.keys(leaf.top_degree)
                    C *= leaf._mont_class(leaf.canonical_top_monomial())[top_key]
            assert alg._top_class()[1] == C
            for d in alg.nonzero_degrees():
                a = _random_of_degree(alg, d, rng)
                b = _random_of_degree(alg, alg.top_degree - d, rng)
                keyed = _by_dual(alg, alg._class_of(b.terms))
                assert _contract(alg._class_of(a.terms), keyed) == C * pairing(a, b), d


def _generators_tried(v, ideal, u):
    """The nonzero generators g whose multiples m*g of v's complementary
    degree the search tests, up to the one that gives u (all, if u is None)."""
    alg = v.algebra
    du = alg.top_degree - v.homogeneous_degree()
    tried = 0
    for g in ideal:
        if g.is_zero() or not alg.basis(du - g.homogeneous_degree()):
            continue
        tried += 1
        if u is not None and any(u == alg.basis_element(m) * g
                                 for m in alg.basis(du - g.homogeneous_degree())):
            break
    return tried


def _leaves(alg):
    """The factors of a tensor product that are not tensor products, left
    to right."""
    if alg._factors is None:
        return [alg]
    return [leaf for f in alg._factors for leaf in _leaves(f)]


def _factor_tree(alg):
    """A ring and, for a tensor product, every factor at any depth."""
    return [alg] + [f for factor in alg._factors or () for f in _factor_tree(factor)]


def _model_phi_specs():
    """Instances whose Gysin functional is read by contraction, besides
    the certified sweep."""
    specs = [("siegel-product", params)
             for params in sweep_parameter_list("siegel-product", {"g": (2, 8)})]
    specs.append(("siegel-product", {"g": 7, "parts": [1] * 7}))
    specs += [("unitary-product", params) for params in sweep_parameter_list(
        "unitary-product", {"p": (1, 4), "q": (1, 4), "full_q": False})]
    specs += [("sp-in-ugg", {"g": g}) for g in range(1, 6)]
    return specs


def _fresh(m):
    """The same morphism with empty memos, for an oracle that must form
    its own images."""
    return Morphism(m.source, m.target, m.generator_images)


def _phi(m):
    """phi by halves, read from the class memo of a fresh copy of ``m``."""
    return _phi_by_halves(_fresh(m))


def _class_memo_openings(monkeypatch):
    """Record every morphism that opens its class memo (``_class_cache``),
    in opening order."""
    opened = []
    image_class = Morphism.image_class

    def recorded(self, mont):
        opening = self._class_cache is None
        cls = image_class(self, mont)
        if opening:
            opened.append(self)
        return cls
    monkeypatch.setattr(Morphism, "image_class", recorded)
    return opened


def _exact(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestGysinByHalves:
    """phi by contraction of two half-degree images against the full-image
    oracle in ``reference.py``."""

    def test_phi_and_class_equal_the_full_images(self):
        compared = exterior = 0
        for fid, params in catalog_sweep_specs() + _model_phi_specs():
            m = build_family(fid, params).restriction
            oracle = phi_by_full_images(_fresh(m))
            image = m._class_cache  # the relation check's memo
            xi = gysin_fundamental_class(m)
            phi = _phi(m)
            assert phi == {w: v for w, v in oracle.items() if v}, (fid, params)
            assert all(_exact(v) for v in phi.values())
            assert xi.terms == gysin_by_full_images(_fresh(m)).terms, (fid, params)
            # xi read the relation check's memo, which the morphism keeps;
            # a second call reads it again, filled
            assert m._class_cache is image, (fid, params)
            assert gysin_fundamental_class(m) == xi, (fid, params)
            assert all(_exact(c) for c in xi.terms.values())
            compared += 1
            exterior += m.target.kind == "exterior"
        assert compared >= 108 and exterior == 8, (compared, exterior)

    @pytest.mark.parametrize("fid, params", [
        ("siegel-product", {"g": 8, "parts": [4, 4]}),
        ("unitary-product", {"p": 4, "q": 4, "parts": [[2, 2], [2, 2]]})],
        ids=["siegel-8-4-4", "unitary-4-4-22-22"])
    def test_no_image_above_half_degree(self, monkeypatch, fid, params):
        m = build_family(fid, params).restriction
        src, tgt = m.source, m.target
        formed = []
        mul = GradedAlgebra._mul_elements

        def recorded(self, a, b):
            if self is tgt and a.terms and b.terms:
                formed.append(tgt.monomial_degree(next(iter(a.terms)))
                              + tgt.monomial_degree(next(iter(b.terms))))
            return mul(self, a, b)

        monkeypatch.setattr(GradedAlgebra, "_mul_elements", recorded)
        opened = _class_memo_openings(monkeypatch)
        f = _fresh(m)
        xi = gysin_fundamental_class(f)
        assert not formed  # phi reads image classes: no product of target elements
        # The memo holds the class of 1, then one entry per step.
        assert opened == [f]
        reached = [src.monomial_degree(w) for w in f._class_cache if any(w)]
        assert gysin_by_full_images(_fresh(m)) == xi
        ceiling = tgt.top_degree // 2 + max(g.degree for g in src.generators)
        assert max(reached) <= ceiling and max(reached) < max(formed) == tgt.top_degree
        assert len(reached) < len(formed)

    def test_exterior_targets_match_the_full_images(self):
        for n in range(1, 7):
            for inst in (family_sl_imag_sp(n), family_sl_odd_real(n)):
                m = inst.restriction
                assert m.target.kind == "exterior"
                oracle = phi_by_full_images(_fresh(m))
                assert _phi(m) == {w: v for w, v in oracle.items() if v}, n
                assert gysin_fundamental_class(m) == gysin_by_full_images(_fresh(m)), n

    def test_cross_koszul_sign_random_tensor_targets(self):
        """Seeded random morphisms from small exterior sources into
        exterior x exterior, exterior x LG(g) and LG(g) x exterior targets,
        where a key's dual carries the sign between odd factor keys."""
        rng = random.Random(20260419)
        targets = [
            tensor_product(exterior_algebra([1, 3]), exterior_algebra([3, 5])),
            tensor_product(exterior_algebra([1, 5]), exterior_algebra([3])),
            tensor_product(exterior_algebra([1, 3]), lagrangian_algebra(2)),
            tensor_product(lagrangian_algebra(2), exterior_algebra([1, 3])),
            tensor_product(lagrangian_algebra(1), exterior_algebra([1, 3, 5])),
        ]
        drawn = nonzero = 0
        for _ in range(48):
            for H in targets:
                m = _random_exterior_morphism(H, rng)
                oracle = {w: v for w, v in phi_by_full_images(_fresh(m)).items() if v}
                assert _phi(m) == oracle
                assert gysin_fundamental_class(m) == gysin_by_full_images(_fresh(m))
                drawn += 1
                nonzero += bool(oracle)
        assert drawn == 240 and nonzero >= 150, nonzero


def _key_coordinate_specs():
    specs = [("siegel-product", params)
             for params in sweep_parameter_list("siegel-product", {"g": (2, 6)})]
    specs += [("unitary-product", params) for params in sweep_parameter_list(
        "unitary-product", {"p": (1, 4), "q": (1, 4), "full_q": False})]
    return specs + [("sp-in-ugg", {"g": g}) for g in range(1, 5)]


class TestImageClasses:
    """The relation check and phi read target classes (``image_class``),
    which ``image_of_monomial``, the reference, must agree with."""

    def test_no_target_normal_form(self, monkeypatch):
        """With the generator images formed, no normal form and no basis
        build of the target or of any factor of it happens on the relation
        check or on phi.  The target's orientation (its canonical top
        monomial) is ring data, read before the patch."""
        real = {name: getattr(GradedAlgebra, name)
                for name in ("normal_form_monomial", "_mul_elements", "_build_basis")}
        guarded = set()

        def refusing(name):
            def method(self, *args):
                if id(self) in guarded:
                    raise AssertionError(f"{name} on the target")
                return real[name](self, *args)
            return method

        for name in real:
            monkeypatch.setattr(GradedAlgebra, name, refusing(name))
        specs = _key_coordinate_specs()
        for fid, params in specs:
            m = build_family(fid, params).restriction
            tgt = m.target
            assert tgt.kind != "exterior"
            tgt._top_class()
            guarded.update(id(f) for f in _factor_tree(tgt))
            try:
                checked = build_morphism(m.source, tgt, m.generator_images)
                phi = _phi_by_halves(checked)
            finally:
                guarded.clear()
            assert phi == _phi(_fresh(m)), (fid, params)
        assert len(specs) == 76

    def test_image_class_is_the_class_of_the_image(self, monkeypatch):
        """Every monomial the relation check and phi reach: its class equals
        the class of its image formed through normal forms.  The relation
        check opens the class memo of every morphism, a source whose
        relations all lie above top(B) (an exterior source has none)
        included, and the morphism keeps it; the Gysin step opens none and
        reads that one, so the morphism holds its generator images and its
        two memos.  Exterior targets (the certified special-linear
        restrictions and their Levi restrictions) take the same memo."""
        opened = _class_memo_openings(monkeypatch)
        morphisms = [(spec, build_family(*spec).restriction) for spec in _key_coordinate_specs()]
        for spec in catalog_sweep_specs():
            if spec[0] in ("sl-imag-sp", "sl-odd-real"):
                inst = build_family(*spec)
                morphisms += [(spec, inst.restriction), (spec + ("levi",), inst.levi_restriction)]
        assert sum(m.target.kind == "exterior" for _, m in morphisms) == 16
        touched = shared = 0
        for spec, m in morphisms:
            opened.clear()
            checked = build_morphism(m.source, m.target, m.generator_images)
            assert opened == [checked], spec
            validation = checked._class_cache
            filled = len(validation)
            gysin_fundamental_class(checked)
            assert opened == [checked], spec
            tgt = checked.target
            relations = any(rdeg <= tgt.top_degree for rdeg, _ in m.source.relations)
            assert (filled > 1) == relations, spec
            assert set(vars(checked)) == {"source", "target", "generator_images",
                                          "_image_cache", "_class_cache"}
            assert checked._class_cache is validation
            assert len(checked._image_cache) == len(m.source.generators) + 1
            for w, cls in validation.items():
                assert cls == tgt._class_of(checked.image_of_monomial(w).terms), (spec, w)
                touched += 1
            shared += relations
        assert touched > 1000 and shared >= 40, (touched, shared)

    def test_cross_sign_on_odd_tensor_targets(self):
        """(ka (x) kb)(ta (x) tb) takes (-1)^(|kb||ta|): targets where an odd
        second-factor key meets an odd first-factor monomial."""
        H = tensor_product(exterior_algebra([1, 3]), exterior_algebra([1, 3]))
        m = build_morphism(exterior_algebra([1, 3]), H,
                           {"e1": H.gen("e1@2"), "e3": H.gen("e3@1")})
        assert m.image_of_monomial((1, 1)).terms == {(0, 1, 1, 0): -1}
        assert m.image_class((1, 1)) == {((0, 1), (1, 0)): -1}
        rng = random.Random(20261020)
        targets = [
            tensor_product(exterior_algebra([1, 3]), exterior_algebra([1, 3, 5])),
            tensor_product(tensor_product(exterior_algebra([1, 3]), lagrangian_algebra(1)),
                           exterior_algebra([1, 3])),
        ]
        for _ in range(24):
            for H in targets:
                m = _random_exterior_morphism(H, rng)
                src = m.source
                for w in (w for d in range(src.top_degree + 1) for w in src.basis(d)):
                    assert m.image_class(w) == H._class_of(m.image_of_monomial(w).terms)


class TestOneMapPerDecision:
    """A restriction opens one class memo: its relation check fills it, the
    restriction keeps it for its life, and phi reads it on the decision's
    Gysin step, which opens none.  No instance or verdict holds a memo, nor
    a class of xi."""

    def test_one_map_per_decided_instance(self, monkeypatch):
        opened, read = _class_memo_openings(monkeypatch), []
        phi_by_halves = dualcoh.morphisms._phi_by_halves

        def recorded(morphism):
            read.append(morphism._class_cache)
            return phi_by_halves(morphism)
        monkeypatch.setattr(dualcoh.morphisms, "_phi_by_halves", recorded)
        specs = catalog_sweep_specs() + [
            ("siegel-product", {"g": 6, "parts": [4, 2]}),
            ("unitary-product", {"p": 4, "q": 5, "parts": [[2, 3], [2, 2]]})]
        levi = exterior = 0
        for spec in specs:
            opened.clear()
            read.clear()
            inst = build_family(*spec)
            # the relation check opened the held memo, for every family
            assert [f for f in opened if f is inst.restriction] == [inst.restriction], spec
            memos = [f._class_cache for f in opened]
            held = inst.restriction._class_cache
            opened.clear()
            verdict = decide_nonvanishing(inst)
            assert opened == [] and len(read) == 1 and read[0] is held, spec
            for obj in (inst, verdict):
                values = vars(obj).values() if hasattr(obj, "__dict__") else obj
                assert not any(x is memo for x in values for memo in memos), spec
            assert inst.restriction._class_cache is held, spec
            if inst.levi_restriction is not None:
                # no decision reads it: it keeps its relation check's memo,
                # the class of 1 alone, since an exterior source has no relations
                assert len(inst.levi_restriction._class_cache) == 1, spec
                assert opened == [], spec
            assert type(verdict.fundamental_class) is Element, spec
            assert (pairs_nontrivially_with_ideal(verdict.fundamental_class, inst.franke_ideal)
                    == verdict.nonvanishing_witness), spec
            levi += inst.levi_restriction is not None
            exterior += not inst.restriction.source.relations
        assert len(specs) == 49 and levi == 8 and exterior == 8

    def test_decision_calls_the_public_functions(self, monkeypatch):
        """A decision goes through the public ``gysin_fundamental_class``
        and ``pairs_nontrivially_with_ideal``, once each: a tool that times
        those two by wrapping them in every dualcoh module that holds them
        sees every decision."""
        calls = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dualcoh"]
        for fn in (gysin_fundamental_class, pairs_nontrivially_with_ideal):
            def recorded(*args, _fn=fn):
                calls.append(_fn.__name__)
                return _fn(*args)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, recorded)
        for spec in [("sp-in-ugg", {"g": 3}), ("sl-odd-real", {"n": 3}),
                     ("unitary-product", {"p": 2, "q": 3, "parts": [[1, 1], [1, 2]]})]:
            calls.clear()
            decide_nonvanishing(build_family(*spec))
            assert calls == ["gysin_fundamental_class", "pairs_nontrivially_with_ideal"], spec

    def test_results_are_plain_elements(self):
        """The public dual class, of ``poincare_dual``, of
        ``gysin_fundamental_class`` and on a verdict, is an ``Element``,
        with no class attached."""
        for spec in [("sp-in-ugg", {"g": 3}), ("siegel-product", {"g": 4, "parts": [2, 2]}),
                     ("unitary-product", {"p": 2, "q": 3, "parts": [[1, 1], [1, 2]]}),
                     ("sl-odd-real", {"n": 2})]:
            inst = build_family(*spec)
            m = inst.restriction
            results = [poincare_dual(m.source, _phi(m), m.target.top_degree),
                       gysin_fundamental_class(m),
                       decide_nonvanishing(inst).fundamental_class]
            assert [type(x) for x in results] == [Element] * 3, spec
            assert results[0] == results[1] == results[2], spec

    def test_relation_check_forms_no_class_above_the_target_top(self):
        """A relation of degree above top(B) maps to 0 by degree, so the
        check forms no class there."""
        skipped = 0
        for spec in _key_coordinate_specs():
            m = build_family(*spec).restriction
            top = m.target.top_degree
            checked = build_morphism(m.source, m.target, m.generator_images)
            skipped += any(rdeg > top for rdeg, _ in m.source.relations)
            assert max(map(m.source.monomial_degree, checked._class_cache)) <= top, spec
        assert skipped == 54, skipped


def _random_exterior_morphism(H, rng):
    """A morphism from an exterior algebra into H: a random set of odd
    degrees that sums to top(H), padded with up to two more, each generator
    sent to a random element of its degree (odd elements square to 0, so
    every choice is a morphism)."""
    odd = [d for d in range(1, H.top_degree + 1, 2) if H.dims(d)]
    while True:
        core = rng.sample(odd, rng.randint(1, min(4, len(odd))))
        if sum(core) == H.top_degree:
            break
    extra = [d for d in range(1, H.top_degree + 4, 2) if d not in core]
    degrees = sorted(core + rng.sample(extra, rng.randint(0, 2)))
    src = exterior_algebra(degrees)
    images = {g.name: Element(H, {m: c for m in H.basis(g.degree)
                                  if (c := rng.randint(-2, 2))})
              for g in src.generators}
    return build_morphism(src, H, images)


class TestExteriorPairingMatrix:
    def test_complements_equal_the_dense_walk(self):
        instances = [build_family(fid, params) for fid, params in catalog_sweep_specs()]
        rings = [alg for alg in batch_sweep_algebras(instances) if alg.kind == "exterior"]
        assert len(rings) >= 8
        for alg in rings:
            for d in range(-1, alg.top_degree + 2):
                assert pairing_matrix(alg, d) == dense_pairing_matrix(alg, d), d


def _random_of_degree(alg, d, rng):
    return Element(alg, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in alg.basis(d)})


def _smallest(fid):
    """The first instance of a sweep over ranks 1..2 in every rank parameter."""
    ranks = FAMILIES[FAMILY_ALIASES.get(fid, fid)].ranks
    return sweep_parameter_list(fid, {k: (1, 2) for k in ranks})[0]


class TestFamilyTable:
    @pytest.mark.parametrize("fid", [*FAMILY_IDS, *FAMILY_ALIASES])
    def test_smallest_instance_builds(self, fid):
        inst = build_family(fid, _smallest(fid))
        assert inst.family_id == FAMILY_ALIASES.get(fid, fid)
        assert inst.parameters == _smallest(fid)

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_missing_parameter_refused(self, fid):
        params = _smallest(fid)
        for k in params:
            with pytest.raises(InvalidPresentationError,
                               match=f"family {fid} needs exactly {', '.join(params)}; got"):
                build_family(fid, {j: v for j, v in params.items() if j != k})

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_unknown_parameter_refused(self, fid):
        with pytest.raises(InvalidPresentationError, match="needs exactly .*; got .*extra"):
            build_family(fid, {**_smallest(fid), "extra": 1})

    def test_shown_defects(self):
        with pytest.raises(InvalidPresentationError, match="needs exactly g, parts; got g$"):
            build_family("siegel-product", {"g": 3})
        with pytest.raises(InvalidPresentationError, match="needs exactly n; got n, g$"):
            build_family("sl-imag-sp", {"n": 2, "g": 9})
        assert build_family("siegel", {"g": 3, "parts": [2, 1]}).family_id == "siegel-product"

    @pytest.mark.parametrize("fid, params", [
        ("sp-in-ugg", {"g": "3"}), ("sl-imag-sp", {"n": 2.0}), ("sp-in-ugg", {"g": True}),
        ("unitary", {"p": 1, "q": False, "parts": [[1, 1]]})],
        ids=["string", "float", "bool", "bool-second-rank"])
    def test_non_int_rank_refused(self, fid, params):
        with pytest.raises(InvalidPresentationError, match="rank . must be an int"):
            build_family(fid, params)

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_missing_sweep_range_refused(self, fid):
        ranks = FAMILIES[fid].ranks
        for k in ranks:
            with pytest.raises(InvalidPresentationError,
                               match=f"sweep {fid} needs exactly {', '.join(ranks)}; got"):
                sweep_parameter_list(fid, {j: (1, 2) for j in ranks if j != k})

    def test_sweep_matches_certified_enumerators(self):
        assert sweep_parameter_list("siegel-product", {"g": (2, 5)}) == [
            {"g": g, "parts": parts} for g in range(2, 6) for parts in two_part_partitions(g)]
        for full_q in (True, False):
            got = sweep_parameter_list("unitary", {"p": (1, 3), "q": (1, 4), "full_q": full_q})
            assert got == [{"p": p, "q": q, "parts": parts}
                           for p in range(1, 4) for q in range(p, 5)
                           for parts in unitary_decompositions(p, q, full_q)]
        assert sweep_parameter_list("sl-odd-real", {"n": (2, 4)}) == [
            {"n": 2}, {"n": 3}, {"n": 4}]


class TestSweepEnumeration:
    def test_two_part_partitions(self):
        assert two_part_partitions(2) == [[1, 1]]
        assert two_part_partitions(4) == [[2, 2], [3, 1]]
        assert two_part_partitions(5) == [[3, 2], [4, 1]]
        assert two_part_partitions(1) == []

    def test_unitary_decompositions_full(self):
        assert unitary_decompositions(2, 2) == [[[2, 2]], [[1, 1], [1, 1]]]
        got = unitary_decompositions(2, 3)
        assert [[2, 3]] in got and [[1, 2], [1, 1]] in got
        for parts in got:
            assert sum(p for p, _ in parts) == 2
            assert sum(q for _, q in parts) == 3

    def test_unitary_decompositions_deficit(self):
        got = unitary_decompositions(1, 2, full_q=False)
        assert [[1, 2]] in got and [[1, 1]] in got


class TestRestrictionIdentities:
    """Intermediate identities the decision procedures rely on, checked
    through nontrivial products rather than generator images alone."""

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_siegel_iterated_sigma_product_image(self, a, b):
        # image of sigma_g sigma_{g-2} ... sigma_{g-2b} is the product of
        # the b+1 trailing classes of the first factor with all classes of
        # the second, exactly
        g = a + b
        inst = family_siegel(g, [a, b])
        G, H = inst.dual_G, inst.dual_H
        prod = G.one()
        for k in range(g, g - 2 * b - 1, -2):
            if k >= 1:
                prod = prod * G.gen(f"sigma{k}")
        expected = H.one()
        for r in range(a, max(a - b, 0) - 1, -1):
            if r >= 1:
                expected = expected * H.gen(f"sigma{r}@1")
        for s in range(b, 0, -1):
            expected = expected * H.gen(f"sigma{s}@2")
        assert apply(inst.restriction, prod) == expected

    @pytest.mark.parametrize("p,q,parts", [
        (2, 2, [(1, 1), (1, 1)]),
        (3, 3, [(2, 2), (1, 1)]),
        (4, 4, [(2, 2), (2, 2)]),
        (3, 4, [(1, 2), (1, 1), (1, 1)]),
    ])
    def test_unitary_tau_kahler_wedge_hits_product_top(self, p, q, parts):
        # tau_q * sigma_1^D restricts to a nonzero multiple of the product
        # dual's top class, D = sum (p_i - 1) q_i
        inst = family_unitary(p, q, parts)
        G, H = inst.dual_G, inst.dual_H
        D = sum((pi - 1) * qi for pi, qi in parts)
        elem = G.gen(f"tau{q}")
        for _ in range(D):
            elem = elem * G.gen("sigma1")
        img = apply(inst.restriction, elem)
        top = H.canonical_top_monomial()
        lam = img.coefficient(top)
        assert lam != 0
        assert img == lam * H.basis_element(top)


def _reference_images(family_id, params, H):
    """Every generator image of a product family, multiplied out in H."""
    if family_id == "siegel-product":
        names = iter(g.name for g in H.generators)  # factor by factor
        classes = [[next(names) for _ in range(gi)] for gi in params["parts"]]
        return {f"sigma{k}": product_composition_image(H, classes, k)
                for k in range(1, params["g"] + 1)}
    parts = params["parts"]
    suffixes = [""] if len(parts) == 1 else [f"@{i + 1}" for i in range(len(parts))]
    sigmas = [[f"sigma{j}{s}" for j in range(1, pi + 1)] for (pi, _), s in zip(parts, suffixes)]
    taus = [[f"tau{j}{s}" for j in range(1, qi + 1)] for (_, qi), s in zip(parts, suffixes)]
    images = {f"sigma{k}": product_composition_image(H, sigmas, k)
              for k in range(1, params["p"] + 1)}
    images.update({f"tau{m}": product_composition_image(H, taus, m)
                   for m in range(1, params["q"] + 1)})
    return images


_CERTIFIED_PRODUCT_SPECS = [spec for spec in catalog_sweep_specs()
                            if spec[0] in ("siegel-product", "unitary-product")]
# then the unitary p <= q <= 5 sweep, q-deficit decompositions included, and
# a seven-factor Siegel H
_PRODUCT_SPECS = _CERTIFIED_PRODUCT_SPECS + [
    ("unitary-product", params) for params in
    sweep_parameter_list("unitary-product", {"p": (1, 5), "q": (1, 5), "full_q": False})
    if ("unitary-product", params) not in _CERTIFIED_PRODUCT_SPECS]
_PRODUCT_SPECS.append(("siegel-product", {"g": 8, "parts": [2, 1, 1, 1, 1, 1, 1]}))


def test_product_factors_are_the_cached_rings():
    # Every leaf factor of H is the builder's own ring, not a renamed copy.
    for family_id, params in _PRODUCT_SPECS:
        H = build_family(family_id, params).dual_H
        if family_id == "siegel-product":
            want = [lagrangian_algebra(gi) for gi in params["parts"]]
        else:
            want = [grassmannian_algebra(pi, qi) for pi, qi in params["parts"]]
        leaves = _leaves(H)
        assert len(leaves) == len(want), (family_id, params)
        assert all(leaf is ring for leaf, ring in zip(leaves, want)), (family_id, params)


def test_composition_images_match_the_product_reference():
    # Certified product instances, the unitary p <= q <= 5 sweep that the
    # benchmark runs with its q-deficit decompositions, and a seven-factor
    # Siegel H: the truncated-product images equal the multiplied-out ones.
    for family_id, params in _PRODUCT_SPECS:
        inst = build_family(family_id, params)
        images = inst.restriction.generator_images
        assert images == _reference_images(family_id, params, inst.dual_H), (family_id, params)
        if family_id == "unitary-product":
            # tau_m past the factors' sum q_i restricts to the zero element
            sum_qi = sum(qi for _, qi in params["parts"])
            for m in range(sum_qi + 1, params["q"] + 1):
                assert images[f"tau{m}"] == inst.dual_H.zero(), (params, m)


def test_product_images_form_no_normal_form_in_H(monkeypatch):
    # The images are products of the factors' own normal forms, so building
    # a certified Siegel instance forms no normal form on a tensor ring; a
    # unitary one forms only the shortcut note's product of top tau
    # classes, once per nested tensor level.
    calls = []
    normal_form = GradedAlgebra.normal_form_monomial

    def counted(ring, mont):
        if ring._factors is not None:
            calls.append(mont)
        return normal_form(ring, mont)

    monkeypatch.setattr(GradedAlgebra, "normal_form_monomial", counted)
    for family_id, params in _CERTIFIED_PRODUCT_SPECS:
        calls.clear()
        build_family(family_id, params)
        if family_id == "siegel-product":
            assert calls == [], params
        else:
            assert len(calls) <= len(params["parts"]) - 1, params
