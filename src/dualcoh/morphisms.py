"""Degree-preserving ring homomorphisms and dual fundamental classes.

A morphism is stored by its images on generators and extended
multiplicatively, in two memos the morphism keeps for its life.
``apply`` and the API extend it to target elements through normal forms,
the reference.  The relation check and phi extend it to target classes
(``Morphism.image_class``), one Pieri chain per term of a generator image
(in an exterior ring, where a class is its normal form, the product) and
no target normal form: a catalog restriction's relation check and its
Gysin steps read one memo.
Construction eagerly verifies that every defining relation of the source
of degree at most top(target) maps to the zero class (a relation above
that degree maps to zero by degree); a silent non-homomorphism would
corrupt every verdict computed downstream.

The dual (Gysin) class of a morphism f: A -> B between oriented duality
algebras is the unique xi in A of degree top(A) - top(B) such that

    <xi, w>_A = top-coefficient_B(f(w))   for every w of degree top(B),

where both sides use the canonical-top orientation convention.  It is the
compact-dual avatar of integration over the subspace.  Every target B
has self-dual keys (model keys, exterior monomials, or pairs of them in a
tensor product), so each right-hand side is one contraction of the
classes of f(a) and f(b), where w = a*b splits at half of top(B), and no
image above that degree (plus one generator) is formed.
``poincare_dual`` contracts the right-hand sides
against a dual basis of A: complementary monomials for exterior sources,
dual Schur keys for Grassmannian ones and dual Q-tilde keys for Lagrangian
ones.  Nothing solves the pairing system.
"""

import random
from fractions import Fraction
from operator import sub

from .algebra import Element, _by_dual, _contract, monomial_value, poincare_dual
from .errors import InvalidPresentationError
from .linalg import add_scaled


class Morphism:
    """A ring homomorphism given on generators, with two memoised
    extensions of the generator images.

    ``image_of_monomial`` extends them to target elements, each step a
    product with normal forms: the reference.  ``image_class`` extends
    them to the target classes of the same images, each step one
    ``_class_of_product`` over the terms of the generator's image, so no
    target normal form is formed; the relation check and phi read it.

    Use :func:`build_morphism` to construct a validated instance; direct
    instantiation skips the relation check.  Either way a generator with no
    image is sent to zero.
    """

    def __init__(self, source, target, generator_images):
        self.source = source
        self.target = target
        # generator name -> Element of target, one per source generator
        self.generator_images = images = {
            g.name: generator_images.get(g.name, target.zero()) for g in source.generators}
        # Seeded with 1 and the generator images, which are normal forms
        # already, so no chain multiplies by one.
        k = len(source.generators)
        cache = self._image_cache = {(0,) * k: target.one()}
        for i, g in enumerate(source.generators):
            cache[(0,) * i + (1,) + (0,) * (k - i - 1)] = images[g.name]
        self._class_cache = None

    def image_of_monomial(self, mont):
        return monomial_value(self._image_cache, mont, self._times_generator)

    def _times_generator(self, img, i):
        return img * self.generator_images[self.source.generators[i].name]

    def image_class(self, mont):
        """The target class of f(mont), a {key: coefficient} dict, formed
        with no target normal form.  The memo opens with the class of 1,
        which refuses a target without self-dual keys."""
        cache = self._class_cache
        if cache is None:
            one = self.target.one().terms
            cache = self._class_cache = {(0,) * len(mont): self.target._class_of(one)}
        return monomial_value(cache, mont, self._class_times_generator)

    def _class_times_generator(self, cls, i):
        image = self.generator_images[self.source.generators[i].name]
        return self.target._class_of_product(cls, image.terms)


def build_morphism(source, target, generator_images):
    """Validated morphism: degree-checked images, all relations -> 0.

    ``generator_images`` maps source generator names to target elements
    (missing names are sent to zero).  Images are degree-checked, so a
    relation of degree above top(target) maps to 0 and is skipped.  The
    class of 1 is read first, so a target without self-dual keys is refused
    even when no relation is checked; the relation check and phi read the
    same ``image_class`` memo.
    """
    for g in source.generators:
        img = generator_images.get(g.name)
        if img is None:
            continue
        if not isinstance(img, Element) or img.algebra is not target:
            raise InvalidPresentationError(
                f"image of {g.name} is not an element of the target algebra")
        if not img.is_zero() and img.homogeneous_degree() != g.degree:
            raise InvalidPresentationError(
                f"image of {g.name} has degree {img.homogeneous_degree()}, "
                f"expected {g.degree}")
    extra = set(generator_images) - {g.name for g in source.generators}
    if extra:
        raise InvalidPresentationError(f"images given for unknown generators: {sorted(extra)}")
    m = Morphism(source, target, generator_images)
    m.image_class((0,) * len(source.generators))
    for rdeg, rpoly in source.relations:
        if rdeg > target.top_degree:
            continue
        cls = {}
        for mont, c in rpoly.items():
            add_scaled(cls, c, m.image_class(mont))
        if cls:
            img = {}
            for mont, c in rpoly.items():
                add_scaled(img, c, m.image_of_monomial(mont).terms)
            pretty = " + ".join(
                f"{c}*{source.monomial_string(mm)}" for mm, c in sorted(rpoly.items()))
            raise InvalidPresentationError(
                f"images violate the degree-{rdeg} relation ({pretty}): "
                f"maps to {Element(target, img)!r}")
    return m


def apply(morphism, v):
    """Image of v under the multiplicative extension, in target normal form."""
    if v.algebra is not morphism.source:
        raise ValueError("element does not belong to the morphism's source")
    out = {}
    for mont, c in v.terms.items():
        add_scaled(out, c, morphism.image_of_monomial(mont).terms)
    return Element(morphism.target, out)


def compose(outer, inner):
    """outer after inner, validated; defined when inner.target is outer.source."""
    if inner.target is not outer.source:
        raise ValueError("morphisms are not composable")
    images = {name: apply(outer, img) for name, img in inner.generator_images.items()}
    return build_morphism(inner.source, outer.target, images)


def gysin_fundamental_class(morphism):
    """The dual class, contracted from the top coefficients of f on basis(top(B)).

    phi[w] = top-coefficient_B(f(w)) for each basis monomial w of degree
    top(B), and :func:`~dualcoh.algebra.poincare_dual` contracts phi
    against a dual basis of the source; a source without one (a tensor
    product) raises InvalidPresentationError, and inconsistent input
    InconsistentPresentationError.  The class is normalized by orienting
    both rings by their canonical top monomials; rescaling either rescales
    it, and no boolean verdict downstream depends on that.

    phi is :func:`_phi_by_halves`: no image above half of top(B) is formed.
    It reads the morphism's ``image_class`` memo, which its relation check
    filled.

    >>> from dualcoh.rings import sp_group_algebra, su_algebra
    >>> G, H = su_algebra(4), sp_group_algebra(2)
    >>> gysin_fundamental_class(build_morphism(G, H, {"e3": H.gen("e3"), "e7": H.gen("e7")}))
    -e5^1
    """
    src, tgt = morphism.source, morphism.target
    if src.top_degree < tgt.top_degree:
        raise InvalidPresentationError(
            "source top degree must be at least the target top degree")
    phi = _phi_by_halves(morphism)
    return poincare_dual(src, phi, tgt.top_degree)


def _phi_by_halves(morphism):
    """phi[w] = c^-1 * sum_k A[dual k] * s_k * B[k]: no image above half degree.

    w = a*b, where a is the longest prefix of w (generators in order) of
    degree at most top(B)/2, so no odd generator of b precedes one of a
    and the product takes no sign.  A and B are the classes of f(a) and
    f(b), read from ``morphism.image_class`` with no target normal form,
    and s_k is the sign of dual(k)*k (``_by_dual``, once per distinct b).
    Keys are self-dual, so the sum is the top-key coefficient of the class
    of f(w) = f(a)*f(b), and c, the coefficient of the target's canonical
    top monomial (1 in an exterior ring), turns it into that monomial's
    coefficient, exactly: an ``int`` where it divides.  f(b) stays within
    top(B)/2 plus the largest generator degree of A.  Zero entries are left
    out of phi.
    """
    src, tgt = morphism.source, morphism.target
    half = tgt.top_degree // 2
    _, c = tgt._top_class()
    image = morphism.image_class
    seconds, phi = {}, {}
    for w in src.basis(tgt.top_degree):
        a = _prefix(w, src._degrees, half)
        b = tuple(map(sub, w, a))
        B = seconds.get(b)
        if B is None:
            B = seconds[b] = _by_dual(tgt, image(b))
        s = _contract(image(a), B)
        if s:
            q, r = divmod(s, c)
            phi[w] = Fraction(s, c) if r else q
    return phi


def _prefix(w, degrees, room):
    """The longest prefix of w, generators in order, of degree <= room."""
    for i, (e, d) in enumerate(zip(w, degrees)):
        k = min(e, room // d)
        if k < e:
            return w[:i] + (k,) + (0,) * (len(w) - i - 1)
        room -= k * d
    return w


def random_homogeneous(algebra, rng):
    """Seeded random homogeneous element (possibly zero), coefficients in -3..3."""
    degs = algebra.nonzero_degrees()
    d = degs[rng.randrange(len(degs))]
    terms = {}
    for m in algebra.basis(d):
        c = rng.randint(-3, 3)
        if c:
            terms[m] = c
    return Element(algebra, terms)


def sample_products(algebra, count, seed):
    """``count`` seeded ``(a, b, a*b)`` triples of homogeneous elements.

    A fresh ``random.Random(seed)`` draws a and then b for each sample, so
    the triples depend only on the ring and the seed: every morphism out of
    one source can be tested on one draw.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = random_homogeneous(algebra, rng)
        b = random_homogeneous(algebra, rng)
        out.append((a, b, a * b))
    return out


def multiplicative_on(morphism, triples):
    """Whether f(ab) == f(a)f(b) on every ``(a, b, ab)`` of ``triples``.

    ``apply`` is linear, so a triple with a zero factor holds for every f
    and is not evaluated.
    """
    return all(apply(morphism, ab) == apply(morphism, a) * apply(morphism, b)
               for a, b, ab in triples if a.terms and b.terms)


def verify_multiplicativity(morphism, sample_count=100, seed=0):
    """Check f(a*b) == f(a)*f(b) on ``sample_count`` seeded pairs.

    The pairs are :func:`sample_products` of the source; to test several
    morphisms out of one source, draw them once and call
    :func:`multiplicative_on` for each.
    """
    return multiplicative_on(morphism, sample_products(morphism.source, sample_count, seed))
