"""Morphism validation, evaluation, and the dual-class construction."""

import random

import pytest

import dualcoh.algebra
import dualcoh.linalg
import dualcoh.morphisms
from dualcoh import (
    InconsistentPresentationError,
    InvalidPresentationError,
    build_morphism,
    compose,
    apply,
    family_sl_odd_real,
    family_unitary,
    gysin_fundamental_class,
    pairing,
    tensor_product,
    verify_multiplicativity,
)
from dualcoh.catalog import build_family, decide_nonvanishing, sweep_parameter_list
from dualcoh.checks import catalog_sweep_specs
from dualcoh.morphisms import Morphism, _phi_by_halves, random_homogeneous
from dualcoh.rings import (
    grassmannian_algebra,
    lagrangian_algebra,
    sp_group_algebra,
    su_algebra,
    su_so_algebra,
)
from reference import direct_quotient, phi_by_full_images, poincare_dual_by_solve


def sl_imag_sp_restriction(n):
    G, H = su_algebra(2 * n), sp_group_algebra(n)
    return build_morphism(G, H, {f"e{d}": H.gen(f"e{d}") for d in range(3, 4 * n, 4)})


def siegel_two_part(a, b):
    g = a + b
    G = lagrangian_algebra(g)
    # the factors share the names sigma_k, so H names them sigma_k@1, sigma_k@2
    H = tensor_product(lagrangian_algebra(a), lagrangian_algebra(b))
    images = {}
    for k in range(1, g + 1):
        img = H.zero()
        for r in range(0, k + 1):
            if r > a or k - r > b:
                continue
            term = H.one()
            if r:
                term = term * H.gen(f"sigma{r}@1")
            if k - r:
                term = term * H.gen(f"sigma{k - r}@2")
            img = img + term
        images[f"sigma{k}"] = img
    return build_morphism(G, H, images)


class TestBuild:
    def test_su_restriction_valid(self):
        G, H = su_algebra(4), su_algebra(2)
        m = build_morphism(G, H, {"e3": H.gen("e3")})
        assert apply(m, G.gen("e5")).is_zero()
        assert apply(m, G.gen("e3")) == H.gen("e3")

    def test_sp_restriction_valid(self):
        m = sl_imag_sp_restriction(2)
        G, H = m.source, m.target
        assert apply(m, G.gen("e5")).is_zero()
        assert apply(m, G.gen("e3") * G.gen("e7")) == H.gen("e3") * H.gen("e7")

    def test_gr_to_lagrangian_valid(self):
        Gr, L = grassmannian_algebra(2, 2), lagrangian_algebra(2)
        images = {"sigma1": L.gen("sigma1"), "sigma2": L.gen("sigma2"),
                  "tau1": -L.gen("sigma1"), "tau2": L.gen("sigma2")}
        m = build_morphism(Gr, L, images)
        assert apply(m, Gr.gen("tau1")) == -L.gen("sigma1")

    def test_degree_mismatch_rejected(self):
        G, H = su_algebra(4), su_algebra(2)
        with pytest.raises(InvalidPresentationError):
            build_morphism(G, H, {"e5": H.gen("e3")})

    def test_unknown_generator_rejected(self):
        G, H = su_algebra(3), su_algebra(2)
        with pytest.raises(InvalidPresentationError):
            build_morphism(G, H, {"e9": H.gen("e3")})

    def test_relation_violation_named(self):
        L = lagrangian_algebra(2)
        with pytest.raises(InvalidPresentationError) as err:
            build_morphism(L, L, {"sigma1": L.gen("sigma1")})  # sigma2 -> 0
        assert "relation" in str(err.value)

    def test_relation_violation_message(self):
        """The check runs on target classes; the message still shows the
        image in standard monomials, on a model and on a tensor target."""
        L = lagrangian_algebra(2)
        with pytest.raises(InvalidPresentationError) as err:
            build_morphism(L, L, {"sigma1": L.gen("sigma1")})
        assert str(err.value) == (
            "images violate the degree-4 relation (2*sigma2^1 + -1*sigma1^2): "
            "maps to -2*sigma2^1")
        H = tensor_product(lagrangian_algebra(1), lagrangian_algebra(1))
        with pytest.raises(InvalidPresentationError) as err:
            build_morphism(L, H, {"sigma1": H.gen("sigma1@1") + H.gen("sigma1@2")})
        assert str(err.value) == (
            "images violate the degree-4 relation (2*sigma2^1 + -1*sigma1^2): "
            "maps to -2*sigma1@1^1*sigma1@2^1")
        G = grassmannian_algebra(2, 2)
        H = tensor_product(grassmannian_algebra(1, 1), grassmannian_algebra(1, 1))
        with pytest.raises(InvalidPresentationError) as err:
            build_morphism(G, H, {"sigma1": H.gen("sigma1@1"),
                                  "tau1": H.gen("tau1@1") + H.gen("tau1@2")})
        assert str(err.value) == (
            "images violate the degree-2 relation (1*tau1^1 + 1*sigma1^1): "
            "maps to -sigma1@2^1")

    def test_keyless_targets_check_normal_forms(self):
        """A target without keys, alone or as a tensor factor, has no
        classes for the relation check to read: it is refused, whether or
        not the images would violate a relation."""
        B = direct_quotient([("z", 2)], [{(3,): 1}], 4)
        for H in (B, tensor_product(B, lagrangian_algebra(1))):
            z = H.gen("z")
            valid = {"sigma1": 2 * z, "sigma2": 2 * z * z}
            for source, images in ((lagrangian_algebra(1), {"sigma1": z}),
                                   (lagrangian_algebra(2), valid)):
                with pytest.raises(InvalidPresentationError) as err:
                    build_morphism(source, H, images)
                assert str(err.value) == "a quotient ring has no dual basis"

    def test_wrong_owner_rejected(self):
        G, H = su_algebra(4), su_algebra(2)
        with pytest.raises(InvalidPresentationError):
            build_morphism(G, H, {"e3": G.gen("e3")})


class TestApply:
    def test_identity_morphism(self):
        G = su_algebra(4)
        ident = build_morphism(G, G, {g.name: G.gen(g.name) for g in G.generators})
        rng = random.Random(3)
        for _ in range(20):
            v = random_homogeneous(G, rng)
            assert apply(ident, v) == v

    def test_siegel_generator_images(self):
        m = siegel_two_part(1, 1)
        G, H = m.source, m.target
        assert apply(m, G.gen("sigma1")) == H.gen("sigma1@1") + H.gen("sigma1@2")
        assert apply(m, G.gen("sigma2")) == H.gen("sigma1@1") * H.gen("sigma1@2")

    def test_owner_check(self):
        m = sl_imag_sp_restriction(2)
        with pytest.raises(ValueError):
            apply(m, m.target.gen("e3"))


class TestGysin:
    def test_sl_imag_sp_n2(self):
        fc = gysin_fundamental_class(sl_imag_sp_restriction(2))
        G = sl_imag_sp_restriction(2).source
        assert fc == -G.gen("e5")

    def test_sl_odd_real_n2(self):
        G, H = su_algebra(5), su_so_algebra(2)
        m = build_morphism(G, H, {"e5": H.gen("e5"), "e9": H.gen("e9")})
        fc = gysin_fundamental_class(m)
        assert fc == -(G.gen("e3") * G.gen("e7"))

    def test_siegel_11(self):
        m = siegel_two_part(1, 1)
        fc = gysin_fundamental_class(m)
        assert fc == m.source.gen("sigma1")
        # theta wedge: sigma2 * sigma1 spans the top degree
        top = m.source.canonical_top_monomial()
        assert (m.source.gen("sigma2") * fc).coefficient(top) == 1

    def test_equal_rank_gives_unit(self):
        Gr, L = grassmannian_algebra(1, 1), lagrangian_algebra(1)
        m = build_morphism(Gr, L, {"sigma1": L.gen("sigma1"),
                                   "tau1": -L.gen("sigma1")})
        assert gysin_fundamental_class(m) == Gr.one()

    def test_defining_identity_full_basis(self):
        # one source per dual basis: Q-tilde keys (Lagrangian), Schur keys
        # (Grassmannian), exterior complements
        for m in (siegel_two_part(2, 1),
                  family_unitary(3, 3, [(2, 2), (1, 1)]).restriction,
                  family_sl_odd_real(3).restriction):
            xi = gysin_fundamental_class(m)
            assert not xi.is_zero()
            src, tgt = m.source, m.target
            top_t = tgt.canonical_top_monomial()
            for w in src.basis(tgt.top_degree):
                we = src.basis_element(w)
                assert pairing(xi, we) == apply(m, we).coefficient(top_t)

    def test_catalog_sources_never_solve(self, monkeypatch):
        # every certified instance and siegel g <= 8 decide with no solve
        def refuse(*args):
            raise AssertionError("the pairing system was solved")

        monkeypatch.setattr(dualcoh.algebra, "solve", refuse)
        monkeypatch.setattr(dualcoh.linalg, "solve", refuse)
        specs = catalog_sweep_specs()
        specs += [("siegel-product", params)
                  for params in sweep_parameter_list("siegel-product", {"g": (2, 8)})]
        sources = set()
        for fid, params in specs:
            inst = build_family(fid, params)
            assert not decide_nonvanishing(inst).fundamental_class.is_zero(), (fid, params)
            sources.add(type(inst.dual_G._model).__name__ if inst.dual_G._model
                        else inst.dual_G.kind)
        assert sources == {"QTildeRing", "SchurRing", "exterior"}
        odd = family_sl_odd_real(3)
        e3, e7, e11 = (odd.dual_G.gen(f"e{d}") for d in (3, 7, 11))
        assert gysin_fundamental_class(odd.restriction) == -(e3 * e7 * e11)

    def test_catalog_classes_form_no_full_image(self, monkeypatch):
        # every certified instance reads phi by contraction: with apply
        # refused, no f(w) can be formed in full
        def refuse(*args):
            raise AssertionError("an image was formed in full")

        instances = [build_family(fid, params) for fid, params in catalog_sweep_specs()]
        expected = [gysin_fundamental_class(inst.restriction) for inst in instances]
        kinds = {inst.restriction.target.kind for inst in instances}
        monkeypatch.setattr(dualcoh.morphisms, "apply", refuse)
        for inst, xi in zip(instances, expected):
            m = inst.restriction
            assert gysin_fundamental_class(Morphism(m.source, m.target, m.generator_images)) == xi
        assert kinds == {"exterior", "quotient", "tensor"}

    def test_scalar_covariance(self):
        # scaling the right-hand side of the defining system scales the class
        from fractions import Fraction
        from dualcoh.linalg import solve
        m = sl_imag_sp_restriction(2)
        src, tgt = m.source, m.target
        delta = src.top_degree - tgt.top_degree
        unknowns, equations = src.basis(delta), src.basis(tgt.top_degree)
        cols = [[pairing(src.basis_element(u), src.basis_element(w))
                 for w in equations] for u in unknowns]
        lam = Fraction(7, 3)
        top_t = tgt.canonical_top_monomial()
        rhs = [lam * apply(m, src.basis_element(w)).coefficient(top_t)
               for w in equations]
        sol, rank = solve(cols, rhs)
        assert rank == len(unknowns)
        scaled = src.element_from_coords(sol, delta)
        assert scaled == lam * gysin_fundamental_class(m)

    def test_degenerate_pairing_rejected(self):
        # x^2 = xy = 0 leaves x orthogonal to all of degree 2: the pairing
        # matrix [[0, 0], [0, 1]] has rank 1 < 2 unknowns
        A = direct_quotient([("x", 2), ("y", 2)],
                            [{(2, 0): 1}, {(1, 1): 1}, {(0, 3): 1}], 4)
        B = direct_quotient([("z", 2)], [{(2,): 1}], 2)
        phi = {w: 1 for w in A.basis(2)}
        with pytest.raises(InconsistentPresentationError, match="degenerate"):
            poincare_dual_by_solve(A, phi, 2)
        # production has no solve: a source without a dual basis is refused.
        # Into B, which has none either, build_morphism refuses first; an
        # unchecked morphism meets the refusal in gysin_fundamental_class
        for source, images in ((A, {"y": B.gen("z")}),
                               (lagrangian_algebra(1), {"sigma1": B.gen("z")})):
            with pytest.raises(InvalidPresentationError) as err:
                build_morphism(source, B, images)
            assert str(err.value) == "a quotient ring has no dual basis"
        m = Morphism(A, B, {"x": B.zero(), "y": B.gen("z")})
        with pytest.raises(InvalidPresentationError, match="no dual basis"):
            gysin_fundamental_class(m)
        pair = tensor_product(lagrangian_algebra(1), su_algebra(2))
        m = build_morphism(pair, su_algebra(2), {"e3": su_algebra(2).gen("e3")})
        with pytest.raises(InvalidPresentationError, match="no dual basis"):
            gysin_fundamental_class(m)
        # into a model target phi is read by contraction, and the class is
        # still refused
        L = lagrangian_algebra(1)
        m = build_morphism(A, L, {"y": L.gen("sigma1")})
        oracle = {w: v for w, v in phi_by_full_images(m).items() if v}
        assert _phi_by_halves(m, m.image_classes()) == oracle
        with pytest.raises(InvalidPresentationError, match="no dual basis"):
            gysin_fundamental_class(m)


class TestImageMemo:
    def test_generator_images_are_seeded(self, monkeypatch):
        m = siegel_two_part(2, 1)
        src, tgt = m.source, m.target
        f = Morphism(src, tgt, m.generator_images)
        units = [tuple(int(j == i) for j in range(len(src.generators)))
                 for i in range(len(src.generators))]
        w = tuple(map(sum, zip(units[0], units[1])))
        expected = apply(m, src.basis_element(w))
        products = []
        mul = dualcoh.algebra.GradedAlgebra._mul_elements

        def counted(self, a, b):
            products.append(self)
            return mul(self, a, b)

        monkeypatch.setattr(dualcoh.algebra.GradedAlgebra, "_mul_elements", counted)
        for g, unit in zip(src.generators, units):
            assert f.image_of_monomial(unit) is m.generator_images[g.name]
        assert f.image_of_monomial((0,) * len(units)) == tgt.one()
        assert products == []
        assert f.image_of_monomial(w) == expected
        assert products == [tgt]

    def test_a_missing_image_is_zero(self):
        G = su_algebra(3)
        f = Morphism(G, G, {"e3": G.gen("e3")})
        assert f.image_of_monomial((1, 0)) == G.gen("e3")
        assert f.image_of_monomial((0, 1)) == G.zero()
        # built directly, as build_morphism documents: e5 and e7 go to zero
        G, H = su_algebra(4), sp_group_algebra(2)
        images = {"e3": H.gen("e3")}
        direct, checked = Morphism(G, H, images), build_morphism(G, H, images)
        assert direct.generator_images == checked.generator_images
        assert apply(direct, G.gen("e5")) == apply(checked, G.gen("e5")) == H.zero()
        assert gysin_fundamental_class(direct) == gysin_fundamental_class(checked)


class TestMultiplicativity:
    def test_valid_morphism_passes(self):
        assert verify_multiplicativity(siegel_two_part(2, 1), 60, seed=5)

    def test_corrupted_table_fails(self):
        L = lagrangian_algebra(2)
        bad = Morphism(L, L, {"sigma1": L.gen("sigma1"), "sigma2": L.zero()})
        assert not verify_multiplicativity(bad, 100, seed=1)

    def test_zero_on_positive_degrees_is_ring_map(self):
        G = su_algebra(4)
        aug = build_morphism(G, G, {})
        assert verify_multiplicativity(aug, 40, seed=9)


class TestCompose:
    def test_functoriality_on_randoms(self):
        G4, G3, G2 = su_algebra(4), su_algebra(3), su_algebra(2)
        m1 = build_morphism(G4, G3, {"e3": G3.gen("e3"), "e5": G3.gen("e5")})
        m2 = build_morphism(G3, G2, {"e3": G2.gen("e3")})
        chain = compose(m2, m1)
        rng = random.Random(13)
        for _ in range(25):
            v = random_homogeneous(G4, rng)
            assert apply(chain, v) == apply(m2, apply(m1, v))

    def test_composition_is_validated(self):
        # Morphism() skips the relation check; compose must not
        L = lagrangian_algebra(2)
        bad = Morphism(L, L, {"sigma1": L.gen("sigma1"), "sigma2": L.zero()})
        ident = build_morphism(L, L, {"sigma1": L.gen("sigma1"), "sigma2": L.gen("sigma2")})
        with pytest.raises(InvalidPresentationError):
            compose(ident, bad)
        assert compose(ident, ident).generator_images == ident.generator_images

    def test_not_composable(self):
        G4, G2 = su_algebra(4), su_algebra(2)
        m = build_morphism(G4, G2, {"e3": G2.gen("e3")})
        with pytest.raises(ValueError):
            compose(m, m)
