"""An external oracle: Groebner normal forms from sympy.

sympy shares no arithmetic with dualcoh.  Each ring's presentation gets a
reduced Groebner basis (grevlex over QQ).  The relations are homogeneous in
the ring's grading, so every basis element is too, and the staircase (the
monomials that no leading monomial divides) is a basis of the quotient in
each degree.  Against it:

- the staircase counts per degree are the Betti numbers;
- a product of basis monomials and its dualcoh normal form have the same
  remainder;
- in the top degree, which is one-dimensional, the remainder of u*w is the
  pairing <u, w> times the remainder of the canonical top monomial.
"""

import random
from fractions import Fraction

import pytest

from dualcoh import pairing, poincare_polynomial
from dualcoh.rings import grassmannian_algebra, lagrangian_algebra

sympy = pytest.importorskip("sympy")

RINGS = {
    "LG(4)": lambda: lagrangian_algebra(4),
    "LG(5)": lambda: lagrangian_algebra(5),
    "Gr(3,3)": lambda: grassmannian_algebra(3, 3),
    "Gr(3,4)": lambda: grassmannian_algebra(3, 4),
}
PAIRS = 30  # seeded pairs of basis monomials per ring and check


class Groebner:
    """The reduced Groebner basis of a ring's presentation."""

    def __init__(self, alg):
        self.alg = alg
        self.gens = sympy.symbols(f"x0:{len(alg.generators)}")
        self.basis = sympy.groebner([self.poly(rel) for _, rel in alg.relations], *self.gens,
                                    order="grevlex", domain="QQ", polys=True)

    def poly(self, terms):
        return sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in terms.items()},
            *self.gens, domain="QQ")

    def remainder(self, terms):
        """The normal form of a {monomial: coefficient} dict, as a dict."""
        return self.basis.reduce(self.poly(terms))[1].as_dict()

    def staircase(self):
        """The monomials that no leading monomial divides, grown from 1 by
        one generator at a time (the staircase is closed under division);
        none may lie above the top degree."""
        leading = [g.monoms(order="grevlex")[0] for g in self.basis.polys]
        k = len(self.gens)
        found, frontier = set(), [(0,) * k]
        while frontier:
            m = frontier.pop()
            if m in found or any(all(a >= b for a, b in zip(m, lm)) for lm in leading):
                continue
            assert self.alg.monomial_degree(m) <= self.alg.top_degree, m
            found.add(m)
            frontier += [m[:i] + (m[i] + 1,) + m[i + 1:] for i in range(k)]
        return found


@pytest.fixture(scope="module", params=list(RINGS))
def ring(request):
    alg = RINGS[request.param]()
    return request.param, alg, Groebner(alg)


def _seeded_pairs(alg, rng, complementary):
    """PAIRS pairs (u, w) of basis monomials: of complementary degrees, or
    of any degrees whose sum is at most the top."""
    top = alg.top_degree
    degrees = alg.nonzero_degrees()
    pairs = []
    while len(pairs) < PAIRS:
        du = rng.choice(degrees)
        dw = top - du if complementary else rng.choice(degrees)
        if du + dw <= top and alg.dims(dw):
            pairs.append((rng.choice(alg.basis(du)), rng.choice(alg.basis(dw))))
    return pairs


def _product(u, w):
    return tuple(a + b for a, b in zip(u, w))


def test_betti_numbers_from_the_staircase(ring):
    name, alg, gb = ring
    betti = [0] * (alg.top_degree + 1)
    for m in gb.staircase():
        betti[alg.monomial_degree(m)] += 1
    assert betti == poincare_polynomial(alg), name


def test_normal_forms_have_the_remainder_of_the_product(ring):
    name, alg, gb = ring
    rng = random.Random(20261020)
    for u, w in _seeded_pairs(alg, rng, complementary=False):
        nf = (alg.basis_element(u) * alg.basis_element(w)).terms
        assert gb.remainder(nf) == gb.remainder({_product(u, w): 1}), (name, u, w)


def test_top_remainders_are_the_pairing(ring):
    name, alg, gb = ring
    [(top_mont, c)] = gb.remainder({alg.canonical_top_monomial(): 1}).items()
    rng = random.Random(20261021)
    nonzero = 0
    for u, w in _seeded_pairs(alg, rng, complementary=True):
        rem = gb.remainder({_product(u, w): 1})
        assert set(rem) <= {top_mont}, (name, u, w)
        ratio = rem.get(top_mont, 0) / c
        expected = pairing(alg.basis_element(u), alg.basis_element(w))
        assert Fraction(int(ratio.p), int(ratio.q)) == expected, (name, u, w)
        nonzero += expected != 0
    assert nonzero >= PAIRS // 2, (name, nonzero)
