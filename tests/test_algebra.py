"""Core graded-algebra machinery against hand-derived and enumerated oracles."""

import doctest
import importlib
import pkgutil
import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest

import dualcoh.algebra
import dualcoh.rings
from dualcoh import (
    CapExceededError,
    InconsistentPresentationError,
    InvalidPresentationError,
    build_family,
    exterior_algebra,
    ideal_basis_in_degree,
    is_divisible,
    monomial_cap,
    pairing,
    pairs_nontrivially_with_ideal,
    poincare_polynomial,
    tensor_product,
)
from dualcoh.algebra import (
    DEFAULT_MONOMIAL_CAP,
    Element,
    _CAP,
    _enumerate_monomials,
    _reach_table,
    model_quotient_algebra,
    order_key,
    pairing_matrix,
    poincare_dual,
)
from dualcoh.linalg import SparseRREF, solve
from dualcoh.morphisms import _phi_by_halves, random_homogeneous
from dualcoh.rings import (
    QTildeRing,
    SchurRing,
    grassmannian_algebra,
    lagrangian_algebra,
    lagrangian_relations,
    su_algebra,
)
from reference import (
    FractionRREF,
    direct_quotient,
    fraction_solve,
    koszul_product,
    naive_product,
    poincare_dual_by_solve,
)


def poly_product(factor_degrees):
    """Independent Poincare oracle: expand prod (1 + t^d) over the integers."""
    out = [1]
    for d in factor_degrees:
        new = out + [0] * d
        for i, c in enumerate(out):
            new[i + d] += c
        out = new
    return out


# The worked g=2 Lagrangian presentation: relations sigma1^2 - 2 sigma2 and
# sigma2^2, derived by expanding prod_(i=1,2) (1 - x_i^2) = 1 by hand.  The
# model constructor refuses it unless both relations vanish in the model.
LAGRANGIAN2 = ([("sigma1", 2), ("sigma2", 4)], [{(2, 0): 1, (0, 1): -2}, {(0, 2): 1}])


def lagrangian2():
    return model_quotient_algebra(*LAGRANGIAN2, QTildeRing(2))


def projective_line():
    # degree-1 and degree-2 parts of (1 + sigma1)(1 + tau1) = 1
    return model_quotient_algebra(
        [("sigma1", 2), ("tau1", 2)],
        [{(1, 0): 1, (0, 1): 1}, {(1, 1): 1}], SchurRing(1, 1))


class TestExterior:
    def test_su2(self):
        alg = exterior_algebra([3])
        assert poincare_polynomial(alg) == [1, 0, 0, 1]
        assert alg.total_dimension == 2

    def test_su4_shape(self):
        alg = exterior_algebra([3, 5, 7])
        assert alg.total_dimension == 8
        assert alg.top_degree == 15
        assert poincare_polynomial(alg) == poly_product([3, 5, 7])

    def test_sus_o_top_class(self):
        alg = exterior_algebra([5, 9])
        assert alg.monomial_string(alg.canonical_top_monomial()) == "e5^1*e9^1"
        assert poincare_polynomial(alg) == poly_product([5, 9])

    @pytest.mark.parametrize("bad", [[], [4], [3, 3], [5, 3], [-3]])
    def test_invalid_presentations(self, bad):
        with pytest.raises(InvalidPresentationError):
            exterior_algebra(bad)

    def test_anticommutation(self):
        alg = exterior_algebra([3, 5, 7])
        e3, e5 = alg.gen("e3"), alg.gen("e5")
        assert e3 * e5 == alg.element({(1, 1, 0): 1})
        assert e5 * e3 == alg.element({(1, 1, 0): -1})

    def test_squares_vanish(self):
        alg = exterior_algebra([3, 5, 7])
        for name in ("e3", "e5", "e7"):
            assert (alg.gen(name) * alg.gen(name)).is_zero()

    def test_repeated_odd_generator_is_zero(self):
        alg = exterior_algebra([3, 5, 7])
        assert alg.element({(2, 0, 0): 1, (0, 1, 0): 1}) == alg.gen("e5")
        assert alg.normal_form_monomial((1, 3, 0)) == {}
        ten = tensor_product(alg, lagrangian_algebra(2))
        assert ten.element({(0, 2, 0, 1, 0): 1}).is_zero()


class TestQuotient:
    def test_g2_lagrangian_basis(self):
        alg = lagrangian2()
        assert [alg.monomial_string(m) for d in (0, 2, 4, 6)
                for m in alg.basis(d)] == ["1", "sigma1^1", "sigma2^1",
                                           "sigma1^1*sigma2^1"]
        assert alg.top_degree == 6

    def test_g2_products(self):
        alg = lagrangian2()
        s1, s2 = alg.gen("sigma1"), alg.gen("sigma2")
        assert s1 * s1 == 2 * s2
        assert (s2 * s2).is_zero()

    def test_projective_line(self):
        alg = projective_line()
        assert poincare_polynomial(alg) == [1, 0, 1]
        # tau1 reduces to -sigma1
        assert alg.gen("tau1") == -alg.gen("sigma1")
        s1 = alg.gen("sigma1")
        assert (s1 * s1).is_zero()

    def test_reference_builds_the_worked_example(self):
        alg = direct_quotient(*LAGRANGIAN2, 6)
        assert [alg.dims(d) for d in (0, 2, 4, 6)] == [1, 1, 1, 1]
        assert [alg.basis(d) for d in range(7)] == [lagrangian2().basis(d) for d in range(7)]

    # Presentation checks that production makes, run through
    # model_quotient_algebra with a real model: LG(1), Q[sigma1]/(sigma1^2).

    def test_degree_zero_relation_rejected(self):
        with pytest.raises(InvalidPresentationError, match="degree-0"):
            model_quotient_algebra([("sigma1", 2)], [{(0,): 1}], QTildeRing(1))

    def test_inhomogeneous_relation_rejected(self):
        with pytest.raises(InvalidPresentationError, match="homogeneous"):
            model_quotient_algebra([("sigma1", 2)], [{(1,): 1, (2,): 1}],
                                   QTildeRing(1))

    def test_inexact_relation_coefficient_rejected(self):
        with pytest.raises(InvalidPresentationError, match="inexact"):
            model_quotient_algebra([("sigma1", 2)], [{(2,): 0.5}], QTildeRing(1))

    def test_odd_generator_rejected(self):
        with pytest.raises(InvalidPresentationError, match="even degree"):
            model_quotient_algebra([("x", 3)], [], QTildeRing(1))

    # Checks only the direct row reduction makes: a model fixes the top
    # degree and the dimensions itself.

    def test_survivors_above_top_detected(self):
        # Q[sigma1]/(sigma1^3) has classes in degree 4 > claimed top 2
        with pytest.raises(InconsistentPresentationError, match="above expected top"):
            direct_quotient([("sigma1", 2)], [{(3,): 1}], 2)

    def test_no_relations_is_inconsistent(self):
        with pytest.raises(InconsistentPresentationError):
            direct_quotient([("sigma1", 2)], [], 4)

    def test_cap_enforced(self):
        # LG(3) has at most 7 ambient monomials in one degree up to its top
        gens = [(f"sigma{i}", 2 * i) for i in (1, 2, 3)]
        with monomial_cap(7):
            alg = model_quotient_algebra(gens, lagrangian_relations(3), QTildeRing(3))
        assert (alg.total_dimension, alg.worst_count) == (8, 7)
        with monomial_cap(6), pytest.raises(CapExceededError) as err:
            model_quotient_algebra(gens, lagrangian_relations(3), QTildeRing(3))
        assert str(err.value) == "per-degree monomial count 7 exceeds cap 6"

    def test_cap_is_restored_after_the_block(self):
        assert _CAP.get() == DEFAULT_MONOMIAL_CAP
        with monomial_cap(10):
            assert _CAP.get() == 10
            with monomial_cap(3):
                assert _CAP.get() == 3
            assert exterior_algebra([3, 5, 7]).worst_count == 1
        assert _CAP.get() == DEFAULT_MONOMIAL_CAP
        with pytest.raises(CapExceededError, match="count 2 exceeds cap 1$"):
            with monomial_cap(1):
                exterior_algebra([3, 5, 7, 9])
        assert _CAP.get() == DEFAULT_MONOMIAL_CAP
        assert exterior_algebra([3, 5, 7, 9]).worst_count == 2

    @pytest.mark.parametrize("cap", [None, "10", 1.5, 0, True],
                             ids=["none", "str", "float", "zero", "bool"])
    def test_cap_must_be_a_positive_int(self, cap):
        with pytest.raises(InvalidPresentationError) as err:
            with monomial_cap(cap):
                raise AssertionError("the block must not start")
        assert str(err.value) == f"the monomial cap must be an int >= 1, got {cap!r}"
        assert _CAP.get() == DEFAULT_MONOMIAL_CAP


class TestTensor:
    def test_dimension_multiplicative(self):
        t = tensor_product(exterior_algebra([3]), exterior_algebra([3]))
        assert t.total_dimension == 4
        assert t.top_degree == 6

    def test_projective_line_square(self):
        a = direct_quotient([("alpha1", 2)], [{(2,): 1}], 2)
        b = direct_quotient([("beta1", 2)], [{(2,): 1}], 2)
        t = tensor_product(a, b)
        assert poincare_polynomial(t) == [1, 0, 2, 0, 1]

    def test_koszul_sign(self):
        t = tensor_product(exterior_algebra([3]), exterior_algebra([3]))
        x, y = t.gen("e3@1"), t.gen("e3@2")
        assert x * y == -(y * x)
        assert not (x * y).is_zero()

    @pytest.mark.parametrize("factors", [
        lambda: (su_algebra(4), grassmannian_algebra(2, 2)),
        lambda: (lagrangian_algebra(3), exterior_algebra([3, 7])),
        lambda: (exterior_algebra([1]), exterior_algebra([5, 9])),
    ])
    def test_dims_are_the_full_convolution(self, factors):
        a, b = factors()
        t = tensor_product(a, b)
        for d in range(-1, t.top_degree + 2):
            assert t.dims(d) == sum(a.dims(da) * b.dims(d - da) for da in range(d + 1))
        assert t.nonzero_degrees() == tuple(
            d for d in range(t.top_degree + 1) if t.dims(d))

    def test_cap_names_the_first_offending_degree(self):
        a, b = lagrangian_algebra(3), grassmannian_algebra(2, 2)
        counts = [sum(a.dims(da) * b.dims(d - da) for da in range(d + 1))
                  for d in range(a.top_degree + b.top_degree + 1)]
        for cap in sorted(set(counts) - {0})[:-1]:  # a cap is at least 1
            d = next(d for d, c in enumerate(counts) if c > cap)
            with monomial_cap(cap), pytest.raises(CapExceededError) as err:
                tensor_product(a, b)
            assert str(err.value) == (
                f"tensor basis count {counts[d]} in degree {d} exceeds cap {cap}")
        with monomial_cap(max(counts)):
            assert tensor_product(a, b).worst_count == max(counts)

    def test_basis_is_pairwise_products(self):
        a = lagrangian2()
        b = direct_quotient([("beta1", 2)], [{(2,): 1}], 2)
        t = tensor_product(a, b)
        for d in range(t.top_degree + 1):
            expected = sum(a.dims(da) * b.dims(d - da) for da in range(d + 1))
            assert t.dims(d) == expected == len(t.basis(d))


class TestPairing:
    def test_exterior_top_coefficient(self):
        alg = exterior_algebra([3, 5, 7])
        e3, e5, e7 = (alg.gen(n) for n in ("e3", "e5", "e7"))
        assert pairing(e3 * e5, e7) == 1
        assert pairing(e5, e3 * e7) == -1

    def test_degree_mismatch_rejected(self):
        alg = lagrangian2()
        with pytest.raises(ValueError):
            pairing(alg.gen("sigma1"), alg.gen("sigma1") * alg.gen("sigma2"))

    def test_owner_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairing(lagrangian2().gen("sigma1"), lagrangian2().gen("sigma1"))

    def test_g2_pairing_matrix_degree_2_vs_4(self):
        alg = lagrangian2()
        assert pairing(alg.gen("sigma1"), alg.gen("sigma2")) == 1

    def test_duality_matrices_invertible(self):
        from dualcoh.linalg import SparseRREF
        for alg in (exterior_algebra([3, 5, 7]), lagrangian2(), projective_line()):
            top = alg.top_degree
            for d in range(top + 1):
                nd = alg.dims(d)
                assert nd == alg.dims(top - d)
                rr = SparseRREF()
                rank = 0
                for u in alg.basis(d):
                    row = {}
                    for j, w in enumerate(alg.basis(top - d)):
                        v = pairing(alg.basis_element(u), alg.basis_element(w))
                        if v:
                            row[j] = v
                    if rr.add(row) is not None:
                        rank += 1
                assert rank == nd


PAIRING_RINGS = {
    "exterior": lambda: exterior_algebra([3, 5, 7, 9]),
    "grassmannian": lambda: grassmannian_algebra(2, 3),
    "lagrangian": lambda: lagrangian_algebra(3),
    "lagrangian-tensor": lambda: tensor_product(lagrangian_algebra(2), lagrangian_algebra(2)),
    "mixed": lambda: tensor_product(su_algebra(4), grassmannian_algebra(2, 2)),
}


class TestPairingMatrix:
    @pytest.mark.parametrize("kind", sorted(PAIRING_RINGS))
    def test_matches_pairing_entrywise(self, kind):
        alg = PAIRING_RINGS[kind]()
        top = alg.top_degree
        signs = set()
        for d in range(top + 1):
            expected = [[pairing(alg.basis_element(u), alg.basis_element(w))
                         for w in alg.basis(top - d)] for u in alg.basis(d)]
            assert pairing_matrix(alg, d) == expected, d
            signs.update(v for row in expected for v in row if v)
        if kind in ("exterior", "mixed"):
            assert -1 in signs and 1 in signs  # odd generators give both signs

    def test_out_of_range_degree_is_empty(self):
        alg = lagrangian2()
        assert pairing_matrix(alg, -1) == [] == pairing_matrix(alg, alg.top_degree + 1)


class TestDivisibility:
    def test_not_divisible(self):
        alg = exterior_algebra([3, 5, 7])
        assert is_divisible(alg.gen("e5"), alg.generator("e7")) is None

    def test_self_divisible(self):
        alg = exterior_algebra([3, 5])
        w = is_divisible(alg.gen("e5"), alg.generator("e5"))
        assert w == alg.one()

    def test_quotient_witness(self):
        alg = lagrangian2()
        v = alg.gen("sigma1") * alg.gen("sigma2")
        w = is_divisible(v, alg.generator("sigma2"))
        assert w is not None
        assert alg.gen("sigma2") * w == v

    def test_witness_soundness_random(self):
        alg = lagrangian2()
        rng = random.Random(7)
        for _ in range(25):
            v = random_homogeneous(alg, rng)
            if v.is_zero():
                continue
            for name in ("sigma1", "sigma2"):
                w = is_divisible(v, alg.generator(name))
                if w is not None:
                    assert alg.gen(name) * w == v


class TestIdealOps:
    def test_exterior_principal_ideal_degree(self):
        alg = exterior_algebra([3, 5, 7])
        basis = ideal_basis_in_degree([alg.gen("e7")], 10)
        assert basis == [alg.gen("e3") * alg.gen("e7")]

    def test_lagrangian_principal_ideal(self):
        alg = lagrangian2()
        basis = ideal_basis_in_degree([alg.gen("sigma2")], 4)
        assert basis == [alg.gen("sigma2")]

    def test_projective_line_ideal_reduces(self):
        alg = projective_line()
        basis = ideal_basis_in_degree([alg.gen("sigma1"), alg.gen("tau1")], 2)
        assert basis == [alg.gen("sigma1")]

    def test_pairs_nontrivially_witness(self):
        alg = exterior_algebra([3, 5, 7])
        u = pairs_nontrivially_with_ideal(alg.gen("e5"), [alg.gen("e7")])
        assert u == alg.gen("e3") * alg.gen("e7")
        assert pairing(alg.gen("e5"), u) in (1, -1)

    def test_pairs_trivially_when_divisible(self):
        alg = exterior_algebra([3, 5, 7])
        assert pairs_nontrivially_with_ideal(alg.gen("e7"), [alg.gen("e7")]) is None

    def test_projective_plane_hyperplane(self):
        # Gr(1,3) = P^2: ideal (sigma1, tau2); sigma1 pairs with itself
        alg = model_quotient_algebra(
            [("sigma1", 2), ("tau1", 2), ("tau2", 4)],
            [{(1, 0, 0): 1, (0, 1, 0): 1},
             {(1, 1, 0): 1, (0, 0, 1): 1},
             {(1, 0, 1): 1}], SchurRing(1, 2))
        u = pairs_nontrivially_with_ideal(
            alg.gen("sigma1"), [alg.gen("sigma1"), alg.gen("tau2")])
        assert u == alg.gen("sigma1")
        assert pairing(alg.gen("sigma1"), u) == 1


def _witness_case(kind):
    """v, a generator g with g*g = 0 and pairs(v, [g]) nonzero, and g's
    copy in an equal but distinct ring."""
    if kind == "model":
        L = lagrangian_algebra(2)
        return L.gen("sigma1"), L.gen("sigma2"), L.renamed(["sigma1", "sigma2"]).gen("sigma2")
    A = exterior_algebra([3, 5, 7])
    return A.gen("e5"), A.gen("e7"), exterior_algebra([3, 5, 7]).gen("e7")


@pytest.mark.parametrize("kind", ["model", "exterior"])
class TestWitnessSearchRefusals:
    def test_generator_of_another_ring(self, kind):
        v, g, foreign = _witness_case(kind)
        for w in (v, g):  # v pairs with (g); g*g = 0, so g pairs with nothing
            with pytest.raises(ValueError, match="elements belong to different algebras"):
                pairs_nontrivially_with_ideal(w, [foreign])

    def test_inhomogeneous_class(self, kind):
        v, g, _ = _witness_case(kind)
        with pytest.raises(ValueError, match="not homogeneous"):
            pairs_nontrivially_with_ideal(v + v.algebra.one(), [g])

    def test_inhomogeneous_generator(self, kind):
        v, g, _ = _witness_case(kind)
        with pytest.raises(ValueError, match="not homogeneous"):
            pairs_nontrivially_with_ideal(v, [g + v.algebra.one()])

    def test_zero_generators_skipped(self, kind):
        v, g, foreign = _witness_case(kind)
        u = pairs_nontrivially_with_ideal(v, [g])
        assert u is not None
        zero = v.algebra.zero()
        assert pairs_nontrivially_with_ideal(v, [zero, foreign.algebra.zero(), g]) == u
        assert pairs_nontrivially_with_ideal(v, [zero]) is None


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_graded_commutativity(self, seed):
        rng = random.Random(seed)
        for alg in (exterior_algebra([3, 5, 7]), lagrangian2()):
            for _ in range(20):
                a, b = random_homogeneous(alg, rng), random_homogeneous(alg, rng)
                if a.is_zero() or b.is_zero():
                    continue
                sign = (-1) ** (a.homogeneous_degree() * b.homogeneous_degree())
                assert a * b == sign * (b * a)

    def test_associativity(self):
        rng = random.Random(11)
        t = tensor_product(exterior_algebra([3, 5]), lagrangian2())
        for _ in range(15):
            a, b, c = (random_homogeneous(t, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_palindromic_poincare(self):
        for alg in (exterior_algebra([3, 5, 9]), lagrangian2(), projective_line()):
            pp = poincare_polynomial(alg)
            assert pp == pp[::-1]
            assert sum(pp) == alg.total_dimension

    @pytest.mark.parametrize("scalar", [0.1, 2.0, "1/2"])
    def test_inexact_scalars_refused(self, scalar):
        alg = lagrangian2()
        s1 = alg.gen("sigma1")
        with pytest.raises(InvalidPresentationError):
            scalar * s1
        with pytest.raises(InvalidPresentationError):
            s1 * scalar
        with pytest.raises(InvalidPresentationError):
            alg.element({(1, 0): scalar})
        assert Fraction(1, 10) * s1 == alg.element({(1, 0): Fraction(1, 10)})

    def test_element_serialization_roundtrip(self):
        alg = lagrangian2()
        v = 3 * alg.gen("sigma1") * alg.gen("sigma2") - Fraction(1, 2) * alg.one()
        s = {alg.monomial_string(m): str(c) for m, c in v.terms.items()}
        back = alg.element({alg.parse_monomial(k): Fraction(c) for k, c in s.items()})
        assert back == v


class TestExponents:
    """``element`` takes only exponent tuples of non-negative ints, and
    ``basis_element`` only basis monomials."""

    @pytest.mark.parametrize("ring, mont", [
        (lambda: lagrangian_algebra(2), (-1, 1)),
        (lambda: su_algebra(3), (-1, 0)),
        (lambda: su_algebra(3), (1.0, 0)),
        (lambda: su_algebra(3), (True, 0)),
        (lambda: su_algebra(3), (1, 0, 0)),
    ])
    def test_element_refuses_a_non_exponent(self, ring, mont):
        alg = ring()
        with pytest.raises(InvalidPresentationError, match="one int >= 0 per generator"):
            alg.element({mont: 1})
        with pytest.raises(InvalidPresentationError, match="one int >= 0 per generator"):
            alg.basis_element(mont)

    def test_exterior_square_is_still_zero(self):
        assert exterior_algebra([3, 5, 7]).element({(2, 0, 0): 1}).is_zero()

    @pytest.mark.parametrize("ring, mont", [
        (lambda: su_algebra(3), (2, 0)),
        (lambda: su_algebra(3), (0, 5)),
        (lambda: lagrangian_algebra(3), (2, 0, 0)),
        (lambda: tensor_product(su_algebra(3), lagrangian_algebra(2)), (1, 1, 2, 0)),
        (lambda: tensor_product(su_algebra(3), lagrangian_algebra(2)), (2, 0, 0, 1)),
    ])
    def test_basis_element_refuses_a_non_basis_monomial(self, ring, mont):
        with pytest.raises(InvalidPresentationError, match="not a basis monomial"):
            ring().basis_element(mont)

    def test_basis_element_builds_only_the_basis_it_reads(self):
        A, L = exterior_algebra([3, 5]), lagrangian2()
        T = tensor_product(A, L)
        a, t = A.basis_element((1, 1)), T.basis_element((1, 0, 0, 1))
        assert (A._basis, T._basis, set(L._basis)) == ({}, {}, {4})
        assert a == A.gen("e3") * A.gen("e5")
        assert t == T.gen("e3") * T.gen("sigma2")

    def test_basis_element_takes_every_basis_monomial(self):
        T = tensor_product(su_algebra(3), lagrangian_algebra(2))
        for d in T.nonzero_degrees():
            assert [T.basis_element(m).terms for m in T.basis(d)] == [{m: 1} for m in T.basis(d)]


def _brute_force_monomials(degrees, parities, d):
    """Every exponent box point of weighted degree d, sorted by order_key."""
    out = [()]
    for deg, par in zip(degrees, parities):
        out = [m + (e,) for m in out for e in range(2 if par else d // deg + 1)]
    return sorted((m for m in out if sum(g * e for g, e in zip(degrees, m)) == d),
                  key=order_key)


@pytest.mark.parametrize("kind", ["odd", "even", "repeated", "mixed"])
def test_enumerator_yields_in_order_key_order(kind):
    rng = random.Random(f"enumerate-{kind}")
    for _ in range(25):
        k = rng.randint(1, 5)
        if kind == "odd":
            degrees = [rng.randrange(1, 12, 2) for _ in range(k)]
        elif kind == "even":
            degrees = [rng.randrange(2, 12, 2) for _ in range(k)]
        elif kind == "repeated":
            degrees = [rng.choice([2, 3, 4])] * min(k, 4)
        else:
            degrees = [rng.randint(1, 7) for _ in range(k)]
        parities = [g % 2 for g in degrees]
        reach = _reach_table(degrees, parities, 19)
        for d in range(0, 20):
            got = list(_enumerate_monomials(degrees, parities, d, reach))
            assert got == _brute_force_monomials(degrees, parities, d), (degrees, d)


def _exact(v):
    """The scalar contract: an int or a Fraction; a float (or anything else) fails."""
    return type(v) in (int, Fraction)


def _rref_rank(vectors):
    rr = SparseRREF()
    for vec in vectors:
        rr.add({i: Fraction(c) for i, c in enumerate(vec) if c})
    return rr.rank


class TestSolve:
    def test_random_systems_against_substitution(self):
        rng = random.Random(1729)
        seen = {"full-rank": 0, "rank-deficient": 0, "inconsistent": 0}
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            # n columns drawn from the span of r random vectors: rank <= r
            r = rng.randint(0, min(m, n))
            span = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
            cols = [[sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(m)]
                    for _ in range(n)]
            if rng.random() < 0.5:
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                rhs = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(m)]
            else:
                rhs = [rng.randint(-3, 3) for _ in range(m)]
            x, rank = solve(cols, rhs)
            assert rank == _rref_rank(cols)
            if x is None:
                assert _rref_rank(cols + [rhs]) == rank + 1
                seen["inconsistent"] += 1
                continue
            assert len(x) == n and all(_exact(v) for v in x)
            assert [sum(v * col[i] for v, col in zip(x, cols)) for i in range(m)] == rhs
            seen["full-rank" if rank == n else "rank-deficient"] += 1
        assert min(seen.values()) >= 20, seen

    def test_empty_and_zero_systems(self):
        assert solve([], [0, 0]) == ([], 0)
        assert solve([], [1]) == (None, 0)
        assert solve([[0, 0]], [0, 0]) == ([Fraction(0)], 0)


class TestSparseRREF:
    def test_integer_rows_stay_exact(self):
        rr = SparseRREF()
        assert rr.add({0: 2, 1: 3}) == 0
        assert rr.pivot_rows == {0: {0: 1, 1: Fraction(3, 2)}}
        assert rr.add({0: 1, 1: 1, 2: 4}) == 1
        assert rr.pivot_rows == {0: {0: 1, 2: 12}, 1: {1: 1, 2: -8}}
        unit = SparseRREF()
        unit.add({0: 1, 1: 3})
        for r in (rr, unit):
            assert all(_exact(v) for row in r.pivot_rows.values() for v in row.values())
            assert all(type(v) is int for row in r.rows.values() for v in row.values())
        x, rank = solve([[2, 3], [4, 5]], [1, 1])
        assert rank == 2 and x == [Fraction(-1, 2), Fraction(1, 2)]
        assert all(_exact(v) for v in x)

    def test_pivot_row_dots_read_the_monic_rows(self):
        rng = random.Random(2026)
        entries = [-3, -2, -1, 1, 2, 3]
        for _ in range(200):
            rr = SparseRREF()
            for _ in range(rng.randint(1, 5)):
                rr.add({c: rng.choice(entries) for c in rng.sample(range(8), 3)})
            vec = {c: Fraction(rng.choice(entries), rng.randint(1, 3))
                   for c in rng.sample(range(8), 4)}
            want = {p: sum(v * vec.get(c, 0) for c, v in row.items())
                    for p, row in rr.pivot_rows.items()}
            got = rr.pivot_row_dots(vec)
            assert got == {p: t for p, t in want.items() if t}
            assert all((type(t) is int) == (t.denominator == 1) for t in got.values())

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            SparseRREF().add({0: 0.5})
        with pytest.raises(TypeError):
            solve([[1, 0]], [0.5, 0])

    def test_matches_the_fraction_reference(self):
        """Rank, pivots, monic rows, reductions and solutions agree with the
        monic Fraction elimination on seeded random rational matrices, and
        every stored row is primitive with a positive pivot."""
        rng = random.Random(1968)
        seen = {"non-integral": 0, "rank-deficient": 0, "full-rank": 0, "inconsistent": 0}
        for _ in range(400):
            n, count = rng.randint(1, 7), rng.randint(1, 8)
            integral = rng.random() < 0.3

            def entry():
                v = rng.randint(-4, 4)
                return v if integral else Fraction(v, rng.randint(1, 5))

            # count rows drawn from the span of r random sparse rows: rank <= r
            r = rng.randint(0, min(n, count))
            span = [[entry() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(r)]
            dense = [[sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(n)]
                     for _ in range(count)]
            new, ref = SparseRREF(), FractionRREF()
            for row in dense:
                sparse = {i: v for i, v in enumerate(row) if v}
                assert new.add(sparse) == ref.add(sparse)
                for p, stored in new.rows.items():
                    assert all(type(v) is int for v in stored.values())
                    assert stored[p] > 0 and gcd(*stored.values()) == 1
            assert new.rank == ref.rank and sorted(new.rows) == sorted(ref.pivot_rows)
            assert new.pivot_rows == ref.pivot_rows
            for _ in range(3):
                vec = {i: entry() for i in range(n) if rng.random() < 0.5}
                vec = {i: v for i, v in vec.items() if v}
                got = new.reduce(vec)
                assert got == ref.reduce(vec) and all(_exact(v) for v in got.values())
            rhs = [rng.randint(-3, 3) for _ in range(count)]
            if rng.random() < 0.5:  # a consistent right-hand side
                rhs = [sum(c * row[i] for c, row in zip(rhs, dense)) for i in range(n)]
            else:
                rhs = [entry() for _ in range(n)]
            x, rank = solve(dense, rhs)
            assert (x, rank) == fraction_solve(dense, rhs)
            seen["non-integral"] += any(type(v) is Fraction and v.denominator > 1
                                        for row in new.pivot_rows.values() for v in row.values())
            seen["rank-deficient" if new.rank < count else "full-rank"] += 1
            seen["inconsistent"] += x is None
        assert min(seen.values()) >= 40, seen


def _assert_exact(value):
    """Every scalar inside an Element, dict, list or tuple is an int or a Fraction."""
    if isinstance(value, dualcoh.algebra.Element):
        value = value.terms
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            _assert_exact(v)
    else:
        assert _exact(value), repr(value)


class TestIntegerInputsStayExact:
    """Integer-only inputs never produce a float, on every path that divides."""

    def test_products_and_normal_forms(self):
        rng = random.Random(11)
        rings = [lagrangian_algebra(4), grassmannian_algebra(2, 3), su_algebra(4),
                 lagrangian2(), tensor_product(lagrangian_algebra(2), su_algebra(3))]
        for alg in rings:
            for d in range(alg.top_degree + 1):
                for m in alg._monomials(d):
                    _assert_exact(alg.normal_form_monomial(m))
                    if alg._model is not None:  # model classes are integral
                        assert all(type(c) is int for c in alg._mont_class(m).values())
            for _ in range(20):
                a, b = random_homogeneous(alg, rng), random_homogeneous(alg, rng)
                assert all(type(c) is int for c in a.terms.values())
                _assert_exact(a * b)
                if not a.is_zero():
                    _assert_exact(alg.coords(a, a.homogeneous_degree()))

    def test_both_poincare_dual_paths(self):
        cases = {"exterior": su_algebra(4), "Schur dual": grassmannian_algebra(2, 3),
                 "Q-tilde dual": lagrangian_algebra(3)}
        for alg in cases.values():
            for e in range(alg.top_degree + 1):
                phi = {w: i - 2 for i, w in enumerate(alg.basis(e))}
                _assert_exact(poincare_dual(alg, phi, e))

    def test_solve_and_divisibility(self):
        _assert_exact(solve([[2, 3], [4, 5], [1, 7]], [1, 1]))
        _assert_exact(solve([[3, 6], [1, 2]], [1, 2]))
        for alg in (lagrangian_algebra(3), lagrangian2(), su_algebra(3)):
            for g in alg.generators:
                for d in range(alg.top_degree + 1):
                    for m in alg.basis(d):
                        v = 3 * alg.gen(g.name) * alg.basis_element(m)
                        w = is_divisible(v, g)
                        assert w is not None and alg.gen(g.name) * w == v
                        _assert_exact(w)

    def test_proportionality_scalar(self):
        from dualcoh.checks import _proportionality, check_kahler_tau_identity
        alg = lagrangian_algebra(3)
        b = 2 * alg.gen("sigma1") * alg.gen("sigma2")
        assert _exact(_proportionality(3 * b, b))
        assert _proportionality(3 * b, b) == 3 and _proportionality(b, 3 * b) == Fraction(1, 3)
        detail = check_kahler_tau_identity(3).detail
        assert "." not in detail, detail


def _refuse_solve(*args):
    raise AssertionError("the pairing system was solved")


def _refusing(name):
    def method(*args):
        raise AssertionError(f"{name} was called")
    return method


class TestPoincareDual:
    def test_fast_paths_match_the_pairing_solve(self, monkeypatch):
        # Every nonzero degree of Gr(p, p+q), p <= q <= 4 (75 cases), of
        # LG(g), g <= 7 (91 cases), and of SU(n), n <= 6; the contractions
        # run with the solve disabled.
        rng = random.Random(2004)
        rings = [grassmannian_algebra(p, q) for q in range(1, 5) for p in range(1, q + 1)]
        rings += [lagrangian_algebra(g) for g in range(1, 8)]
        rings += [su_algebra(n) for n in range(2, 7)]
        cases = {"SchurRing": 0, "QTildeRing": 0, "exterior": 0}
        for alg in rings:
            for e in range(alg.top_degree + 1):
                if not alg.dims(e):
                    continue
                phi = {w: rng.randint(-5, 5) for w in alg.basis(e)}
                with monkeypatch.context() as mp:
                    mp.setattr(dualcoh.algebra, "solve", _refuse_solve)
                    xi = poincare_dual(alg, phi, e)
                assert xi == poincare_dual_by_solve(alg, phi, e), (alg.generators, e)
                assert all(_exact(c) for c in xi.terms.values())
                cases[type(alg._model).__name__ if alg._model else alg.kind] += 1
        assert cases == {"SchurRing": 75, "QTildeRing": 91, "exterior": 55}

    def test_wrong_model_dual_is_caught(self, monkeypatch):
        alg = grassmannian_algebra(2, 3)
        model = alg._model
        true_dual = model.dual
        phi = {w: 1 for w in alg.basis(4)}
        monkeypatch.setattr(model, "dual", lambda key: key)
        with pytest.raises(InconsistentPresentationError, match="one-to-one"):
            poincare_dual(alg, phi, 4)
        # (2) and (1, 1) swap duals: a bijection onto degree 8, but a wrong one
        swap = {(2,): (2, 2), (1, 1): (3, 1)}
        monkeypatch.setattr(model, "dual", lambda key: swap.get(key) or true_dual(key))
        with pytest.raises(InconsistentPresentationError, match="identity"):
            poincare_dual(alg, {alg.basis(4)[0]: 1}, 4)
        # LG(3): the identity sends degree 4 to degree 4, not 8; in the
        # middle degree 6 it is onto, but pairs (3) and (2, 1) with
        # themselves rather than with each other
        lag = lagrangian_algebra(3)
        assert lag._model.dual((3,)) == (2, 1)
        monkeypatch.setattr(lag._model, "dual", lambda key: key)
        with pytest.raises(InconsistentPresentationError, match="one-to-one"):
            poincare_dual(lag, {w: 1 for w in lag.basis(4)}, 4)
        for w in lag.basis(6):
            with pytest.raises(InconsistentPresentationError, match="identity"):
                poincare_dual(lag, {w: 1}, 6)

    @pytest.mark.parametrize("fid, params", [
        ("sp-in-ugg", {"g": 3}),
        ("siegel-product", {"g": 4, "parts": [2, 2]}),
        ("sl-odd-real", {"n": 1}),
        ("sl-odd-real", {"n": 2})],
        ids=["Schur", "Q-tilde", "odd-exterior-1", "odd-exterior-2"])
    def test_corrupted_converted_class_is_caught(self, monkeypatch, fid, params):
        """One coefficient of xi, on a term u that pairs nonzero with
        w0 = basis(e)[0], is changed after the contraction (in the
        model-to-standard conversion, or in the exterior re-keying): the
        tripwire reads the class back from xi's terms, so it raises.  At
        sl-odd-real n=1, xi and w0 have odd degree, so the unpatched call
        also pins the operand order of class(xi)*w0."""
        m = build_family(fid, params).restriction
        src, e = m.source, m.target.top_degree
        phi = _phi_by_halves(m, m.image_classes())
        d = src.top_degree - e
        w0 = src.basis(e)[0]
        u = next(u for u in src.basis(d)
                 if pairing(src.basis_element(u), src.basis_element(w0)))
        assert not poincare_dual(src, phi, e).is_zero()
        if src._model is not None:
            convert = src._model_coords_to_std

            def corrupted(cls, degree):
                out = dict(convert(cls, degree))
                if degree == d:
                    out[u] = out.get(u, 0) + 1
                return out
            monkeypatch.setattr(src, "_model_coords_to_std", corrupted)
        else:
            by_dual = dualcoh.algebra._by_dual

            def corrupted(alg, cls):
                out = by_dual(alg, cls)
                out[u] = out.get(u, 0) + 1
                return out
            monkeypatch.setattr(dualcoh.algebra, "_by_dual", corrupted)
        with pytest.raises(InconsistentPresentationError, match="identity"):
            poincare_dual(src, phi, e)

    def test_model_dual_forms_no_normal_form(self, monkeypatch):
        """On Schur and Q-tilde sources the dual class, its tripwire
        included, forms no product of elements and no normal form, and it
        is a plain ``Element``."""
        for fid, params in [("sp-in-ugg", {"g": 4}), ("siegel-product", {"g": 5, "parts": [3, 2]}),
                            ("unitary-product", {"p": 3, "q": 4, "parts": [[2, 2], [1, 2]]})]:
            m = build_family(fid, params).restriction
            src, e = m.source, m.target.top_degree
            phi = _phi_by_halves(m, m.image_classes())
            want = poincare_dual_by_solve(src, phi, e)
            with monkeypatch.context() as mp:
                for name in ("_mul_elements", "normal_form_monomial"):
                    mp.setattr(src, name, _refusing(name))
                xi = poincare_dual(src, phi, e)
            assert src._model is not None and xi == want, (fid, params)
            assert type(xi) is Element, (fid, params)

    def test_inexact_values_refused(self):
        alg = exterior_algebra([3, 5])
        with pytest.raises(InvalidPresentationError):
            poincare_dual(alg, {(1, 0): 0.5}, 3)

    @pytest.mark.parametrize("build", [lambda: exterior_algebra([3, 5]),
                                       lambda: lagrangian_algebra(2),
                                       lambda: grassmannian_algebra(2, 2)],
                             ids=["exterior", "Q-tilde", "Schur"])
    def test_degree_outside_the_ring_refused(self, build):
        alg = build()
        for e in (-1, alg.top_degree + 1, 99):
            with pytest.raises(InvalidPresentationError, match="outside"):
                poincare_dual(alg, {}, e)
        assert poincare_dual(alg, {}, alg.top_degree).is_zero()

    @pytest.mark.parametrize("build,e,bad", [
        (lambda: exterior_algebra([3, 5]), 3, [(0, 1), (1, 1), (2, 0), (1, 0, 0)]),
        (lambda: lagrangian_algebra(2), 2, [(0, 1), (5, 5), (1,), (1, -1)]),
        # sigma1^2 has degree 4 but is not a standard monomial
        (lambda: lagrangian_algebra(2), 4, [(2, 0), (1, 0)]),
        (lambda: grassmannian_algebra(2, 2), 4, [(2, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 0)]),
    ], ids=["exterior", "Q-tilde", "Q-tilde-same-degree", "Schur"])
    def test_key_outside_the_basis_refused(self, build, e, bad):
        alg = build()
        good = alg.basis(e)[0]
        for w in bad:
            assert w not in alg.basis(e)
            with pytest.raises(InvalidPresentationError):
                poincare_dual(alg, {good: 1, w: 1}, e)
        assert not poincare_dual(alg, {good: 1}, e).is_zero()


# Rings built afresh on each call, so a test can look at untouched caches.
PRODUCT_RINGS = {
    "exterior": lambda: su_algebra(5),
    "schur": lambda: grassmannian_algebra(3, 3),
    "lagrangian": lambda: lagrangian_algebra(4),
    "mixed": lambda: tensor_product(su_algebra(4), grassmannian_algebra(2, 2)),
}


def _random_element(alg, rng, terms=4):
    """A seeded element over several degrees; some coefficients are rational."""
    degs = alg.nonzero_degrees()
    out = {}
    for _ in range(terms):
        basis = alg.basis(degs[rng.randrange(len(degs))])
        c = rng.randint(-3, 3)
        if rng.random() < 0.25:
            c = Fraction(c, rng.randint(2, 5))
        if c:
            out[basis[rng.randrange(len(basis))]] = c
    return Element(alg, out)


def _cancelling_pairs(alg, rng, count):
    """Basis monomials x != y whose free product survives, with the sign s
    that makes the cross terms of (x + y) * (x + s*y) cancel."""
    monts = [m for d in alg.nonzero_degrees()[1:-1] for m in alg.basis(d)]
    rng.shuffle(monts)
    out = []
    for m1 in monts:
        for m2 in monts:
            if m1 != m2 and koszul_product(alg, m1, m2) is not None:
                both_odd = alg.monomial_degree(m1) % 2 and alg.monomial_degree(m2) % 2
                out.append((m1, m2, 1 if both_odd else -1))
                break
        if len(out) == count:
            break
    return out


class TestProductKernel:
    """``_mul_elements`` against the one-term-at-a-time reference product."""

    @pytest.mark.parametrize("kind", sorted(PRODUCT_RINGS))
    def test_matches_the_naive_product(self, kind):
        alg = PRODUCT_RINGS[kind]()
        rng = random.Random(sum(map(ord, kind)))
        for _ in range(60):
            a, b = _random_element(alg, rng), _random_element(alg, rng)
            got = a * b
            assert got == naive_product(a, b)
            assert all(got.terms.values())

    @pytest.mark.parametrize("kind", sorted(PRODUCT_RINGS))
    def test_cancelled_terms(self, kind):
        pairs = _cancelling_pairs(PRODUCT_RINGS[kind](), random.Random(7), 5)
        assert len(pairs) == 5
        for m1, m2, sign in pairs:
            dualcoh.rings.clear_ring_cache()
            alg = PRODUCT_RINGS[kind]()
            x, y = alg.basis_element(m1), alg.basis_element(m2)
            a, b = x + y, x + sign * y
            got = a * b
            # A free sum that cancels is dropped before any normal form.
            assert tuple(map(add, m1, m2)) not in alg._nf_cache
            assert got == naive_product(a, b) and all(got.terms.values())
            for u, v in ((b, a), (a, 2 * b + a)):
                got = u * v
                assert got == naive_product(u, v)
                assert all(got.terms.values())
        dualcoh.rings.clear_ring_cache()


def test_docstrings():
    # Every module of the package that holds a doctest runs, so a new
    # doctest cannot be left out of a list.
    finder = doctest.DocTestFinder()
    ran = []
    for info in pkgutil.walk_packages(dualcoh.__path__, "dualcoh."):
        module = importlib.import_module(info.name)
        if any(test.examples for test in finder.find(module)):
            results = doctest.testmod(module)
            assert results.attempted and results.failed == 0, info.name
            ran.append(info.name)
    assert {"dualcoh.algebra", "dualcoh.catalog", "dualcoh.linalg", "dualcoh.morphisms",
            "dualcoh.rings"} <= set(ran)
