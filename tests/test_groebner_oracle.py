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
  pairing <u, w> times the remainder of the canonical top monomial;
- for a catalog restriction f: G -> H with dual class xi, the Gysin
  identity <xi, w>_G = integral_H f(w) holds for every w in basis(top H),
  both sides read as top-degree remainder ratios and f(w) expanded from
  the generator images.

A tensor product's Groebner basis is the union of its factors' bases in
disjoint variables: their leading monomials are coprime, so every
S-polynomial between factors reduces to zero (Buchberger's criterion) and
the union is already a Groebner basis.
"""

import functools
import random
from fractions import Fraction

import pytest

from dualcoh import build_family, gysin_fundamental_class, pairing, poincare_polynomial
from dualcoh.catalog import sweep_parameter_list
from dualcoh.rings import grassmannian_algebra, lagrangian_algebra

sympy = pytest.importorskip("sympy")

RINGS = {f"LG({g})": (lambda g=g: lagrangian_algebra(g)) for g in range(1, 6)}
RINGS.update({f"Gr({p},{q})": (lambda p=p, q=q: grassmannian_algebra(p, q))
              for p in range(1, 4) for q in range(p, 8 - p)})
PAIRS = 30  # seeded pairs of basis monomials per ring and check


class Groebner:
    """The Groebner basis of a ring's presentation: the reduced basis of
    its relations, or the union of its tensor factors' bases.  Polynomials
    are elements of a sympy ring with the grevlex order."""

    def __init__(self, alg):
        self.alg = alg
        self.ring = sympy.ring(f"x0:{len(alg.generators)}", sympy.QQ, sympy.grevlex)[0]
        self.polys = []
        for offset, factor in _factors(alg, 0):
            k = len(factor.generators)
            pad = (0,) * (len(alg.generators) - offset - k)
            basis = sympy.groebner([_terms_poly(rel, k) for _, rel in factor.relations],
                                   order="grevlex", polys=True)
            self.polys += [self.ring.from_dict({(0,) * offset + m + pad: c
                                                for m, c in g.as_dict().items()})
                           for g in basis.polys]

    def poly(self, terms):
        """A {monomial: coefficient} dict as a polynomial."""
        return self.ring.from_dict({m: self.ring.domain(c.numerator, c.denominator)
                                    for m, c in terms.items()})

    def reduce(self, poly):
        return poly.rem(self.polys)

    def remainder(self, terms):
        """The normal form of a {monomial: coefficient} dict, as a dict."""
        return dict(self.reduce(self.poly(terms)))

    def top_ratio(self, remainder):
        """The remainder of a top-degree polynomial (a dict or a reduced
        polynomial) over that of the canonical top monomial, which spans
        the top degree."""
        [(top, c)] = self.remainder({self.alg.canonical_top_monomial(): 1}).items()
        assert set(remainder) <= {top}, remainder
        ratio = remainder.get(top, 0) / c
        return Fraction(int(ratio.numerator), int(ratio.denominator))

    def staircase(self):
        """The monomials that no leading monomial divides, grown from 1 by
        one generator at a time (the staircase is closed under division);
        none may lie above the top degree."""
        leading = [g.LM for g in self.polys]
        k = len(self.alg.generators)
        found, frontier = set(), [(0,) * k]
        while frontier:
            m = frontier.pop()
            if m in found or any(all(a >= b for a, b in zip(m, lm)) for lm in leading):
                continue
            assert self.alg.monomial_degree(m) <= self.alg.top_degree, m
            found.add(m)
            frontier += [m[:i] + (m[i] + 1,) + m[i + 1:] for i in range(k)]
        return found


def _terms_poly(terms, k):
    """A {monomial: coefficient} dict as a sympy polynomial in k variables."""
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in terms.items()},
        *sympy.symbols(f"x0:{k}"), domain="QQ")


def _factors(alg, offset):
    """(first generator index, ring) for each tensor factor of alg that is
    not itself a tensor product, in generator order."""
    if alg._factors is None:
        return [(offset, alg)]
    a, b = alg._factors
    return _factors(a, offset) + _factors(b, offset + alg._split)


@functools.cache
def _groebner(alg):
    """``Groebner(alg)``, built once per ring."""
    return Groebner(alg)


@pytest.fixture(scope="module", params=list(RINGS))
def ring(request):
    alg = RINGS[request.param]()
    return request.param, alg, _groebner(alg)


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
    rng = random.Random(20261021)
    nonzero = 0
    for u, w in _seeded_pairs(alg, rng, complementary=True):
        expected = pairing(alg.basis_element(u), alg.basis_element(w))
        assert gb.top_ratio(gb.remainder({_product(u, w): 1})) == expected, (name, u, w)
        nonzero += expected != 0
    assert nonzero >= PAIRS // 2, (name, nonzero)


# Every full-q certified instance whose G is LG(g) or Gr(p, q) with
# p <= q and p + q <= 7.
GYSIN_SPECS = (
    [("siegel-product", params) for params in sweep_parameter_list("siegel-product", {"g": (2, 5)})]
    + [("unitary-product", params)
       for params in sweep_parameter_list("unitary-product", {"p": (1, 6), "q": (1, 6)})
       if params["p"] <= params["q"] and params["p"] + params["q"] <= 7]
    + [("sp-in-ugg", {"g": g}) for g in range(1, 4)])


def test_gysin_identity_on_the_top_basis():
    """<xi, w>_G = integral_H f(w) for every w in basis(top H): the left
    side the remainder of xi*w, the right side that of f(w), a product of
    generator images reduced after each factor."""
    identities = 0
    for fid, params in GYSIN_SPECS:
        m = build_family(fid, params).restriction
        G, H = m.source, m.target
        gG, gH = _groebner(G), _groebner(H)
        xi = gG.poly(gysin_fundamental_class(m).terms)
        images = [gH.poly(m.generator_images[g.name].terms) for g in G.generators]
        for w in G.basis(H.top_degree):
            fw = gH.ring.one
            for image, e in zip(images, w):
                for _ in range(e):
                    fw = gH.reduce(fw * image)
            xi_w = gG.reduce(xi * gG.poly({w: 1}))
            assert gG.top_ratio(xi_w) == gH.top_ratio(fw), (fid, params, w)
            identities += 1
    assert (len(GYSIN_SPECS), identities) == (34, 70), identities
