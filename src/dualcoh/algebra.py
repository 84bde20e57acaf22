"""Finite-dimensional graded-commutative algebras over the rationals.

Three constructions cover every compact dual in the catalog: exterior
algebras on odd-degree generators, polynomial rings on even-degree
generators modulo a homogeneous relation ideal, and tensor products of the
two.  All coefficients are exact: an ``int`` wherever the value is
integral by construction (every catalog model class is), a
``fractions.Fraction`` only where a division leaves a denominator (the
conversion from model classes to standard monomials is not integral),
never a float.  Every verdict downstream (zero / nonzero, divisibility)
depends on that exactness.

Monomials are exponent tuples aligned with the owning algebra's generator
list.  Within one cohomological degree, monomials are ordered by the key
``(exponent sum, reversed exponent tuple)``; the quotient construction
eliminates the largest monomials, so standard (basis) monomials are the
minimal ones under this order.  The basis of a quotient in each degree is
exactly the set of non-pivot columns of the reduced row echelon form of the
span of relation multiples, with columns sorted by the key descending.

``_enumerate_monomials`` yields the monomials of one degree lazily in
this (basis) order, so a basis build stops at its last standard monomial.
Its walk enters only branches that a reach table says can still yield.  A
ring builds that table once, up to its top degree, and every degree's walk
reads it; renamed copies share it.

Quotients are built by ``model_quotient_algebra``, which computes in an
isomorphic model ring and selects these standard monomials lazily, one
degree at a time.  Each command sets one monomial cap for a block
(``monomial_cap``); only the three constructors and the ring cache read it,
through ``refuse_over_cap`` and a ring's ``worst_count``.
Every ring kind has one product: ambient monomials multiply freely (with
the Koszul sign) and each result is replaced by its cached normal form.
``_free_mul`` is the one free product, for ``_mul_elements``,
``pairing_matrix`` and the exterior duals alike.  Its sign is a bit count
over two bitmasks of odd generators, memoised per monomial and ring; a ring
without odd generators does no sign work.  An exterior normal form is the
identity on square-free monomials (a repeated odd generator is 0), and a
free product that survives is square-free, so exterior products skip that
pass.

Scalars and coefficients must be ``int`` or ``Fraction``: a float is
refused, not rounded.  Integer inputs stay ``int`` until a division
leaves a denominator; ``SparseRREF`` eliminates over the integers and
returns a ``Fraction`` only for an entry its final division does not clear.

Every ring has self-dual keys: a model's keys, the square-free monomials
of an exterior ring (a monomial's class is its normal form), and pairs of
factor keys in a tensor product.  A key k pairs with dual(k) to s_k times
the top key (s_k = 1 in a model; in an exterior ring dual(k) is the
complement and s_k a Koszul sign) and to 0 with every other key, so the
top coefficient of A*B, for classes of complementary degree, is one
contraction sum_k A[dual k] * s_k * B[k], with no product formed.
Classes are multiplied by ``_class_of_product`` without a normal form: in
a model a chain of ``mult`` (Pieri) steps, in a tensor product factor by
factor with the cross Koszul sign, each factor's key products memoised on
the tensor ring like its other tables.  A morphism's relation check and its
Gysin functional (``morphisms.gysin_fundamental_class``, a contraction of
the classes of two half-degree images) run on these target classes, and
the witness search tests each spanning product m*g_i of the ideal,
without row reduction, by contracting class(m) against the class of
v*g_i, formed once per generator.  ``ideal_basis_in_degree`` (an echelon
basis) is the reference that checks and tests compare it against.

``poincare_dual(algebra, phi, e)`` is the class xi of degree top - e with
<xi, w> = phi[w] on the degree-e basis, made without a solve: in an
exterior ring (keys are the basis) phi re-keyed by ``_by_dual``; in a
model one contraction against ``dual(key)`` (a Schur partition's complement
in the box, the parts of {1..g} a Q-tilde strict partition misses),
converted to standard monomials once.  A tensor product is refused.  Its
tripwire reads the class of xi back from the standard terms.
"""

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from copy import copy
from fractions import Fraction
from operator import add, mul

from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InvalidPresentationError,
)
from .linalg import SparseRREF, add_scaled, solve

DEFAULT_MONOMIAL_CAP = 200_000
_CAP = ContextVar("monomial_cap", default=DEFAULT_MONOMIAL_CAP)


@contextmanager
def monomial_cap(cap):
    """Build and fetch rings under the monomial cap ``cap`` inside the block.

    ``cap`` must be an ``int`` >= 1 (not a ``bool``); anything else is
    refused with ``InvalidPresentationError`` when the block starts.
    """
    if type(cap) is not int or cap < 1:
        raise InvalidPresentationError(f"the monomial cap must be an int >= 1, got {cap!r}")
    token = _CAP.set(cap)
    try:
        yield
    finally:
        _CAP.reset(token)


def refuse_over_cap(worst):
    """Refuse a ring with ``worst`` monomials in one degree over the current cap."""
    cap = _CAP.get()
    if worst > cap:
        raise CapExceededError(f"per-degree monomial count {worst} exceeds cap {cap}")


class Generator(namedtuple("Generator", "name degree")):
    """A ring generator with a fixed cohomological degree."""

    __slots__ = ()

    @property
    def parity(self):
        return self.degree % 2

    def __repr__(self):
        return f"Generator({self.name!r}, {self.degree})"


def order_key(mont):
    """Sort key for monomials of equal degree; smaller = kept as standard."""
    return (sum(mont), mont[::-1])


def _count_monomials(degrees, parities, dmax):
    """Per-degree counts of ambient monomials, degrees 0..dmax."""
    counts = [0] * (dmax + 1)
    counts[0] = 1
    for deg, par in zip(degrees, parities):
        if par:
            for d in range(dmax, deg - 1, -1):
                counts[d] += counts[d - deg]
        else:
            for d in range(deg, dmax + 1):
                counts[d] += counts[d - deg]
    return counts


def _reach_table(degrees, parities, dmax):
    """reach[i][s]: bit t is set iff generators 0..i-1 reach exponent sum s
    in degree t <= dmax.  One table serves the walk of every degree up to
    dmax."""
    mask = (1 << (dmax + 1)) - 1
    reach = [[1]]
    for deg, par in zip(degrees, parities):
        emax = 1 if par else dmax // deg
        prev = reach[-1]
        row = [0] * (len(prev) + emax)
        for s, bits in enumerate(prev):
            for e in range(emax + 1):
                row[s + e] |= (bits << (e * deg)) & mask
        reach.append(row)
    return reach


def _enumerate_monomials(degrees, parities, d, reach):
    """Exponent tuples of weighted degree d (odd exponents capped at 1),
    yielded lazily in ascending ``order_key`` order.

    Exponents are fixed from the last generator down, each in ascending
    order, within one exponent sum at a time.  A branch is entered only if
    the generators before it can still reach the remaining (exponent sum,
    degree) pair, as read off ``reach``, a ``_reach_table`` of these
    generators up to any degree >= d; so every branch yields.

    >>> reach = _reach_table([2, 2, 4], [0, 0, 0], 8)
    >>> list(_enumerate_monomials([2, 2, 4], [0, 0, 0], 4, reach))
    [(0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)]
    """
    k = len(degrees)
    cur = [0] * k

    def rec(i, s, t):
        if i == 0:
            yield tuple(cur)
            return
        deg, below = degrees[i - 1], reach[i - 1]
        emax = min(t // deg, s, 1 if parities[i - 1] else s)
        for e in range(emax + 1):
            if s - e < len(below) and below[s - e] >> (t - e * deg) & 1:
                cur[i - 1] = e
                yield from rec(i - 1, s - e, t - e * deg)
        cur[i - 1] = 0

    for s, bits in enumerate(reach[k]):
        if bits >> d & 1:
            yield from rec(k, s, d)


class Element:
    """A ring element: sparse rational combination of standard monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms  # dict mont -> nonzero int or Fraction; treat as frozen

    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        """Degree of a homogeneous element, None for zero; raises if mixed."""
        degs = {self.algebra.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, mont):
        return self.terms.get(mont, 0)

    def __add__(self, other):
        self._check_owner(other)
        out = dict(self.terms)
        add_scaled(out, 1, other.terms)
        return Element(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_owner(other)
            return self.algebra._mul_elements(self, other)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            raise InvalidPresentationError(f"inexact scalar {scalar!r}")
        if not scalar:
            return Element(self.algebra, {})
        return Element(self.algebra, {m: scalar * v for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def _check_owner(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (self.algebra.monomial_degree(m), order_key(m))):
            c = self.terms[m]
            ms = self.algebra.monomial_string(m)
            if ms == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(ms)
            elif c == -1:
                bits.append(f"-{ms}")
            else:
                bits.append(f"{c}*{ms}")
        return " + ".join(bits).replace("+ -", "- ")


class GradedAlgebra:
    """A graded-commutative ring with explicit per-degree bases.

    Instances are produced by :func:`exterior_algebra`,
    :func:`model_quotient_algebra` and :func:`tensor_product`; the class
    itself only hosts shared machinery.
    Algebras are logically immutable; internal caches are memoization only.
    """

    def __init__(self, kind, generators, relations, top_degree):
        self.kind = kind
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        self.top_degree = top_degree
        self.worst_count = 0      # the per-degree count held against the cap
        self._degrees = tuple(g.degree for g in self.generators)
        self._parities = tuple(g.parity for g in self.generators)
        self._odd_indices = tuple(i for i, p in enumerate(self._parities) if p)
        self._odd_masks = {}      # monomial -> (odd mask, above mask), see _free_mul
        self._reach = []          # _reach_table up to the top degree, filled on first walk
        self._gen_index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._gen_index) != len(self.generators):
            raise InvalidPresentationError("duplicate generator names")
        self._dims = {}
        self._nonzero_degrees = None
        self._basis = {}
        self._basis_pos = {}
        self._nf_cache = {}
        self._factors = None      # tensor products
        self._split = None
        self._products = None     # (factor, monomial) -> {key: class}, see _class_of_product
        self._model = None        # model-backed quotients
        self._key_index = {}      # model key -> position in model.keys(its degree)
        self._mont_class_cache = {}
        self._dual_keys = {}      # model key -> model.dual(key), see _dual_key
        self._std_convert = {}    # degree -> tagged SparseRREF selecting the basis

    # ---------------------------------------------------------------- basics

    @property
    def total_dimension(self):
        return sum(self.dims(d) for d in range(self.top_degree + 1))

    def dims(self, d):
        if d < 0 or d > self.top_degree:
            return 0
        return self._dims.get(d, 0)

    def nonzero_degrees(self):
        """The degrees 0..top with a nonzero component, ascending."""
        if self._nonzero_degrees is None:
            self._nonzero_degrees = tuple(
                d for d in range(self.top_degree + 1) if self.dims(d))
        return self._nonzero_degrees

    def basis(self, d):
        """Ordered standard-monomial basis of the degree-d component."""
        if d < 0 or d > self.top_degree:
            return []
        if d not in self._basis:
            self._build_basis(d)
        return self._basis[d]

    def basis_positions(self, d):
        if d not in self._basis_pos:
            self._basis_pos[d] = {m: i for i, m in enumerate(self.basis(d))}
        return self._basis_pos[d]

    def monomial_degree(self, mont):
        return sum(map(mul, self._degrees, mont))

    def generator(self, name):
        return self.generators[self._gen_index[name]]

    def renamed(self, names):
        """This ring with generator i named ``names[i]``.

        The copy shares every table of this ring by reference, those built
        later included: bases, normal forms, model classes.  None of them
        depends on generator names, so a ring and its renamings are built
        once.  Their elements still do not mix, as they are distinct rings.
        """
        gens = tuple(Generator(n, g.degree) for n, g in zip(names, self.generators))
        if len(gens) != len(self.generators) or len({g.name for g in gens}) != len(gens):
            raise InvalidPresentationError("a renaming needs one distinct name per generator")
        alg = copy(self)
        alg.generators = gens
        alg._gen_index = {g.name: i for i, g in enumerate(gens)}
        return alg

    def canonical_top_monomial(self):
        top = self.basis(self.top_degree)
        if len(top) != 1:
            raise InconsistentPresentationError(
                f"top degree {self.top_degree} has dimension {len(top)}, expected 1")
        return top[0]

    # ------------------------------------------------------------- elements

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(0,) * len(self.generators): 1})

    def gen(self, name):
        i = self._gen_index.get(name)
        if i is None:
            raise KeyError(f"no generator named {name!r}")
        mont = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return self.element({mont: 1})

    def basis_element(self, mont):
        """The basis monomial ``mont`` as an element; anything else is refused."""
        self._check_exponents(mont)
        if not self._is_basis_monomial(mont):
            raise InvalidPresentationError(f"{self.monomial_string(mont)} is not a basis monomial")
        return Element(self, {mont: 1})

    def element(self, raw_terms):
        """Element from an ambient {exponent tuple: coefficient} dict."""
        out = {}
        for mont, c in raw_terms.items():
            self._check_exponents(mont)
            if not isinstance(c, (int, Fraction)):
                raise InvalidPresentationError(f"inexact coefficient {c!r}")
            if c:
                add_scaled(out, c, self.normal_form_monomial(mont))
        return Element(self, out)

    def _check_exponents(self, mont):
        """Refuse all but a tuple of one ``int`` >= 0 (not a ``bool``) per generator."""
        if (type(mont) is not tuple or len(mont) != len(self.generators)
                or any(type(e) is not int or e < 0 for e in mont)):
            raise InvalidPresentationError(f"{mont!r} is not one int >= 0 per generator")

    def _is_basis_monomial(self, mont):
        """Whether an exponent tuple is a basis monomial; exterior parts build no basis."""
        if self.kind == "exterior":
            return max(mont) <= 1
        if self._factors is not None:
            (a, b), s = self._factors, self._split
            return a._is_basis_monomial(mont[:s]) and b._is_basis_monomial(mont[s:])
        return mont in self.basis_positions(self.monomial_degree(mont))

    def coords(self, elem, d):
        pos = self.basis_positions(d)
        vec = [0] * len(pos)
        for m, c in elem.terms.items():
            vec[pos[m]] = c
        return vec

    def element_from_coords(self, coeffs, d):
        return Element(self, {m: c for m, c in zip(self.basis(d), coeffs) if c})

    # --------------------------------------------------------- monomial ops

    def monomial_string(self, mont):
        bits = [f"{g.name}^{e}" for g, e in zip(self.generators, mont) if e]
        return "*".join(bits) if bits else "1"

    def parse_monomial(self, s):
        mont = [0] * len(self.generators)
        if s.strip() != "1":
            for factor in s.split("*"):
                name, _, exp = factor.strip().rpartition("^")
                if name not in self._gen_index:
                    raise ValueError(f"unknown generator in monomial string: {factor!r}")
                if int(exp) < 0:
                    raise ValueError(f"negative exponent in monomial string: {factor!r}")
                mont[self._gen_index[name]] += int(exp)
        return tuple(mont)

    def _free_mul(self, m1, m2):
        """Product of two ambient monomials: (sign, mont) or None if it dies.

        The Koszul sign is the parity of the pairs (odd generator i of m1,
        odd generator j of m2) with i > j.  Each monomial's odd mask (bit i
        for each odd generator present) and above mask (bit j when an odd
        number of its odd generators lie above j) are memoised per ring, so
        the sign is one bit count.  Without odd generators there is no sign.
        """
        if not self._odd_indices:
            return 1, tuple(map(add, m1, m2))
        masks = self._odd_masks
        odd1, above1 = masks.get(m1) or self._masks_of(m1)
        odd2, _ = masks.get(m2) or self._masks_of(m2)
        if odd1 & odd2:
            return None
        return (-1 if (above1 & odd2).bit_count() & 1 else 1), tuple(map(add, m1, m2))

    def _masks_of(self, mont):
        odd = above = 0
        for i in reversed(self._odd_indices):
            if odd.bit_count() & 1:
                above |= 1 << i
            if mont[i]:
                odd |= 1 << i
        self._odd_masks[mont] = masks = (odd, above)
        return masks

    def normal_form_monomial(self, mont):
        """Reduce one ambient monomial to a {standard monomial: coefficient} dict."""
        cached = self._nf_cache.get(mont)
        if cached is not None:
            return cached
        d = self.monomial_degree(mont)
        if d > self.top_degree:
            result = {}
        elif self.kind == "exterior":
            result = {} if max(mont) > 1 else {mont: 1}
        elif self._factors is not None:
            a, b = self._factors
            s = self._split
            ra = a.normal_form_monomial(mont[:s])
            rb = b.normal_form_monomial(mont[s:])
            result = {}
            for ma, ca in ra.items():
                for mb, cb in rb.items():
                    result[ma + mb] = ca * cb
        else:
            cls = self._mont_class(mont)
            result = self._model_coords_to_std(cls, d) if cls else {}
        self._nf_cache[mont] = result
        return result

    # --------------------------------------------------------------- product

    def _mul_elements(self, a, b):
        """The one product: free products summed in place, then each nonzero
        sum replaced by its cached normal form.  An exterior normal form is
        the identity on the square-free sums, so they are the product."""
        acc = {}
        get = acc.get
        free_mul = self._free_mul
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                hit = free_mul(m1, m2)
                if hit is not None:
                    sign, mont = hit
                    acc[mont] = get(mont, 0) + sign * c1 * c2
        if self.kind == "exterior":
            return Element(self, {mont: c for mont, c in acc.items() if c})
        out = {}
        nf = self.normal_form_monomial
        for mont, c in acc.items():
            if c:
                add_scaled(out, c, nf(mont))
        return Element(self, out)

    def _monomials(self, d):
        """The ambient monomials of degree d <= top, lazily in ``order_key``
        order.  Every degree walks the ring's one reach table, built on the
        first walk and filled in place, so renamed copies share it."""
        if not self._reach:
            self._reach[:] = _reach_table(self._degrees, self._parities, self.top_degree)
        return _enumerate_monomials(self._degrees, self._parities, d, self._reach)

    def _build_basis(self, d):
        if self.kind == "exterior":
            monts = list(self._monomials(d))
            self._basis[d] = monts
            self._dims[d] = len(monts)
        elif self._factors is not None:
            a, b = self._factors
            combined = []
            for da in range(d + 1):
                db = d - da
                if a.dims(da) == 0 or b.dims(db) == 0:
                    continue
                for ma in a.basis(da):
                    for mb in b.basis(db):
                        combined.append(ma + mb)
            self._basis[d] = combined
        else:
            self._build_model_basis(d)

    # ------------------------------------ self-dual keys, model-backed quotient

    def _mont_class(self, mont):
        """Class of an ambient monomial, as a {key: coefficient} dict: the
        model class, or an exterior normal form.  In a tensor product a key
        is the pair (key of the first factor, key of the second), nested as
        the factors are; only the factors memoise their classes, so a tensor
        product holds none.  Any other ring has no keys and is refused, so
        it cannot be a morphism target."""
        if self._factors is not None:
            (a, b), s = self._factors, self._split
            cb = b._mont_class(mont[s:]).items()
            return {(ka, kb): x * y for ka, x in a._mont_class(mont[:s]).items() for kb, y in cb}
        if self._model is not None:
            return monomial_value(self._mont_class_cache, mont, self._model.mult)
        if self.kind != "exterior":
            raise InvalidPresentationError(f"a {self.kind} ring has no dual basis")
        return self.normal_form_monomial(mont)

    def _class_of(self, terms):
        """Class of an ambient {monomial: coefficient} dict."""
        cls = {}
        for m, c in terms.items():
            add_scaled(cls, c, self._mont_class(m))
        return cls

    def _dual_key(self, key):
        """The key that pairs with ``key`` to +-top key: the model's ``dual``,
        memoised, the exterior complement, or the factors' duals."""
        if self._factors is not None:
            a, b = self._factors
            return a._dual_key(key[0]), b._dual_key(key[1])
        if self._model is None:
            return tuple(1 - x for x in key)
        dual = self._dual_keys.get(key)
        if dual is None:
            dual = self._dual_keys[key] = self._model.dual(key)
        return dual

    def _dual_sign(self, key):
        """s with dual(key) * key = s * top key: 1 in a model, the Koszul
        sign in an exterior ring, and in a tensor product the factors' signs
        times (-1)^(deg dual(kb) * deg ka) for key = (ka, kb)."""
        if not self._odd_indices:
            return 1
        if self._factors is None:
            return self._free_mul(self._dual_key(key), key)[0]
        (a, b), (ka, kb) = self._factors, key
        s = a._dual_sign(ka) * b._dual_sign(kb)
        return -s if a._key_parity(ka) and b._key_parity(b._dual_key(kb)) else s

    def _key_parity(self, key):
        """The parity of a key's degree: 0 without odd generators."""
        if self._factors is not None:
            a, b = self._factors
            return a._key_parity(key[0]) ^ b._key_parity(key[1])
        return self.monomial_degree(key) & 1 if self._odd_indices else 0

    def _top_class(self):
        """(top key, c): the class of the canonical top monomial is c times
        the top key."""
        [(key, c)] = self._mont_class(self.canonical_top_monomial()).items()
        return key, c

    def _class_of_product(self, cls, terms):
        """The class of x*t summed over the terms c*t of ``terms``, where
        ``cls`` is the class of x, with no normal form.  In a model each
        term is one chain of ``mult`` steps.  A tensor product works factor
        by factor,
            (ka (x) kb) * (ta (x) tb) = (-1)^(|kb| |ta|) (ka*ta) (x) (kb*tb),
        each factor's key*monomial memoised in ``_products`` per (factor,
        monomial) and then per key, so equal factors share entries.  In an
        exterior ring a class is its normal form and the step is the
        product."""
        if self._model is not None:
            mult = self._model.mult
            out = {}
            for mont, c in terms.items():
                part = cls
                for i, e in enumerate(mont):
                    for _ in range(e):
                        part = mult(part, i)
                add_scaled(out, c, part)
            return out
        if self._factors is None:
            return self._mul_elements(Element(self, cls), Element(self, terms)).terms
        (a, b), s = self._factors, self._split
        odd = bool(self._odd_indices)
        products = self._products
        out = {}
        get = out.get
        for mont, c in terms.items():
            ta, tb = mont[:s], mont[s:]
            flip = odd and a.monomial_degree(ta) & 1
            table_a = products.setdefault((a, ta), {})
            table_b = products.setdefault((b, tb), {})
            for (ka, kb), x in cls.items():
                pa = table_a.get(ka)
                if pa is None:
                    pa = table_a[ka] = a._class_of_product({ka: 1}, {ta: 1})
                if not pa:
                    continue
                pb = table_b.get(kb)
                if pb is None:
                    pb = table_b[kb] = b._class_of_product({kb: 1}, {tb: 1})
                if not pb:
                    continue
                x *= -c if flip and b._key_parity(kb) else c
                for ka2, y in pa.items():
                    xy = x * y
                    for kb2, z in pb.items():
                        k = (ka2, kb2)
                        out[k] = get(k, 0) + xy * z
        return {k: v for k, v in out.items() if v}

    def _build_model_basis(self, d):
        """Standard monomials of degree d: a monomial is standard exactly when
        its model class is independent of the classes of all smaller
        monomials, which is the non-pivot condition of the row reduction of
        the relation span."""
        target = self._dims[d]
        monts = self._monomials(d)
        # The k-th standard monomial's row carries tag column target + k.  A
        # candidate is standard iff its reduced class keeps a model column
        # (below target); the finished RREF also converts model coordinates.
        rref = SparseRREF()
        std = []
        while len(std) < target:
            m = next(monts, None)
            if m is None:
                raise InconsistentPresentationError(
                    f"model rank deficit in degree {d}: found {len(std)}, expected {target}")
            row = rref.reduce(self._model_row(self._mont_class(m)))
            if any(c < target for c in row):
                row[target + len(std)] = 1
                rref.add(row)
                std.append(m)
        self._basis[d] = std
        self._std_convert[d] = rref

    def _model_row(self, cls):
        return {self._key_index[k]: c for k, c in cls.items()}

    def _model_coords_to_std(self, cls, d):
        std = self.basis(d)
        n = len(std)
        left = self._std_convert[d].reduce(self._model_row(cls))
        return {std[c - n]: -v for c, v in left.items()}


def monomial_value(cache, mont, times):
    """Value of an exponent tuple under a multiplicative map, memoised.

    ``cache`` maps exponent tuples to values and must already hold the
    value of the empty monomial; ``times(value, i)`` multiplies a value by
    generator i.  The last generator present is peeled off first, so a
    monomial's value extends the cached value of its prefix.
    """
    value = cache.get(mont)
    if value is None:
        i = max(j for j, e in enumerate(mont) if e)
        prev = mont[:i] + (mont[i] - 1,) + mont[i + 1:]
        value = cache[mont] = times(monomial_value(cache, prev, times), i)
    return value


# ------------------------------------------------------------- constructors


def exterior_algebra(generator_degrees):
    """Exterior algebra on odd-degree generators, named e<degree>.

    >>> A = exterior_algebra([3, 5, 7])
    >>> A.total_dimension, A.top_degree
    (8, 15)
    """
    degs = list(generator_degrees)
    if not degs:
        raise InvalidPresentationError("exterior algebra needs at least one generator")
    if any(type(d) is not int for d in degs):
        raise InvalidPresentationError(f"exterior generator degrees must be ints: {degs}")
    if any(d <= 0 or d % 2 == 0 for d in degs):
        raise InvalidPresentationError(f"exterior generator degrees must be odd and positive: {degs}")
    if any(b <= a for a, b in zip(degs, degs[1:])):
        raise InvalidPresentationError(f"generator degrees must be strictly increasing: {degs}")
    gens = [Generator(f"e{d}", d) for d in degs]
    top = sum(degs)
    counts = _count_monomials(degs, [1] * len(degs), top)
    refuse_over_cap(max(counts))
    alg = GradedAlgebra("exterior", gens, (), top)
    alg.worst_count = max(counts)
    for d, c in enumerate(counts):
        alg._dims[d] = c
    return alg


def _normalize_relations(gens, relations):
    out = []
    k = len(gens)
    for rel in relations:
        poly = {}
        rdeg = None
        for mont, c in rel.items():
            if not isinstance(c, (int, Fraction)):
                raise InvalidPresentationError(f"inexact relation coefficient {c!r}")
            if not c:
                continue
            if len(mont) != k:
                raise InvalidPresentationError("relation exponent tuple length mismatch")
            d = sum(g.degree * e for g, e in zip(gens, mont))
            if rdeg is None:
                rdeg = d
            elif d != rdeg:
                raise InvalidPresentationError("relations must be homogeneous")
            poly[mont] = c
        if not poly:
            continue
        if rdeg == 0:
            raise InvalidPresentationError("degree-0 relation makes the quotient trivial")
        out.append((rdeg, poly))
    return tuple(out)


def _quotient(generators, relations, top_degree):
    """The validated presentation, with no basis or product built yet."""
    gens = [Generator(*g) for g in generators]
    if not gens:
        raise InvalidPresentationError("quotient algebra needs at least one generator")
    if any(g.degree <= 0 or g.degree % 2 for g in gens):
        raise InvalidPresentationError("quotient generators must have positive even degree")
    rels = _normalize_relations(gens, relations)
    if top_degree < 0:
        raise InvalidPresentationError("expected top degree must be nonnegative")
    return GradedAlgebra("quotient", gens, rels, top_degree)


def model_quotient_algebra(generators, relations, model):
    """Quotient of a polynomial ring on even generators by homogeneous
    relations, computed in a model.

    ``generators`` is a list of (name, degree) pairs; ``relations`` a list of
    {exponent tuple: coefficient} dicts over those generators.  ``model`` is
    a ring isomorphic to the quotient that is cheap to multiply in.  It
    provides ``top_degree``, ``keys(d)`` (its basis of degree d), ``one``
    (the class of 1), ``mult(cls, i)`` (a class times generator i, 0-based)
    and ``dual(key)``, for :func:`poincare_dual`: the key of complementary
    degree whose product with ``key`` is the top key, when the product of
    ``key`` with every other key of that degree has no top-key term.
    Classes are {key: int or Fraction} dicts over the keys.  Bases and
    normal forms follow the module's standard-monomial contract, and every
    presentation relation must vanish in the model.
    """
    alg = _quotient(generators, relations, model.top_degree)
    alg.worst_count = max(_count_monomials(alg._degrees, alg._parities, alg.top_degree))
    refuse_over_cap(alg.worst_count)
    alg._model = model
    alg._mont_class_cache[(0,) * len(alg.generators)] = model.one
    for d in range(model.top_degree + 1):
        keys = model.keys(d)
        alg._dims[d] = len(keys)
        alg._key_index.update((k, i) for i, k in enumerate(keys))
    for rdeg, poly in alg.relations:
        if alg._class_of(poly):
            raise InconsistentPresentationError(
                f"a degree-{rdeg} relation does not vanish in the model")
    return alg


def tensor_product(a, b):
    """Graded tensor product; multiplication uses the Koszul sign rule.

    Bases are pairwise products of the factor bases, at most the cap in one
    degree.  Colliding generator names are disambiguated with @1 / @2 suffixes.
    """
    names_a = [g.name for g in a.generators]
    names_b = [g.name for g in b.generators]
    if set(names_a) & set(names_b):
        names_a = [f"{n}@1" for n in names_a]
        names_b = [f"{n}@2" for n in names_b]
    gens = [Generator(n, g.degree) for n, g in zip(names_a, a.generators)]
    gens += [Generator(n, g.degree) for n, g in zip(names_b, b.generators)]
    ka, kb = len(a.generators), len(b.generators)
    rels = [(d, {m + (0,) * kb: c for m, c in poly.items()}) for d, poly in a.relations]
    rels += [(d, {(0,) * ka + m: c for m, c in poly.items()}) for d, poly in b.relations]
    top = a.top_degree + b.top_degree
    alg = GradedAlgebra("tensor", gens, tuple(rels), top)
    alg._factors = (a, b)
    alg._split = ka
    alg._products = {}
    dims = alg._dims
    for da in a.nonzero_degrees():
        for db in b.nonzero_degrees():
            dims[da + db] = dims.get(da + db, 0) + a.dims(da) * b.dims(db)
    cap = _CAP.get()
    for d in sorted(dims):
        if dims[d] > cap:
            raise CapExceededError(f"tensor basis count {dims[d]} in degree {d} exceeds cap {cap}")
    alg.worst_count = max(dims.values())
    return alg


# ------------------------------------------------------------------- ops


def poincare_polynomial(algebra):
    """Betti numbers as a list indexed by degree (coefficient of t^d)."""
    return [algebra.dims(d) for d in range(algebra.top_degree + 1)]


def pairing(a, b):
    """Coefficient of the canonical top monomial in a*b.

    Requires homogeneous arguments of complementary degree; the result is
    the intersection (Poincare duality) pairing in the chosen orientation.
    """
    if a.algebra is not b.algebra:
        raise ValueError("pairing requires elements of the same algebra")
    alg = a.algebra
    da, db = a.homogeneous_degree(), b.homogeneous_degree()
    if da is not None and db is not None and da + db != alg.top_degree:
        raise ValueError(
            f"pairing needs complementary degrees, got {da} + {db} != {alg.top_degree}")
    top = alg.canonical_top_monomial()
    return (a * b).coefficient(top)


def pairing_matrix(alg, d):
    """The pairings of basis(d) (rows) with basis(top - d) (columns).

    Entry [i][j] is ``pairing(basis_element(u_i), basis_element(w_j))``,
    read as the Koszul sign of the free product u_i * w_j times the
    canonical top coefficient of its normal form, with no element built.
    In an exterior ring only the complement of u_i is read: two square-free
    monomials of complementary degree with disjoint support are
    complements, and every other free product vanishes.

    >>> A = exterior_algebra([3, 5, 7, 9])
    >>> pairing_matrix(A, 3), pairing_matrix(A, 21)
    ([[1]], [[-1]])
    >>> A.basis(12), pairing_matrix(A, 12)
    ([(0, 1, 1, 0), (1, 0, 0, 1)], [[0, 1], [1, 0]])
    """
    cols = alg.basis(alg.top_degree - d)
    rows = []
    if alg.kind == "exterior":
        column = {w: j for j, w in enumerate(cols)}
        for u in alg.basis(d):
            wc = tuple(1 - x for x in u)
            row = [0] * len(cols)
            row[column[wc]] = alg._free_mul(u, wc)[0]
            rows.append(row)
        return rows
    top = alg.canonical_top_monomial()
    for u in alg.basis(d):
        row = []
        for w in cols:
            hit = alg._free_mul(u, w)
            row.append(hit[0] * alg.normal_form_monomial(hit[1]).get(top, 0) if hit else 0)
        rows.append(row)
    return rows


def poincare_dual(algebra, phi, e):
    """The xi of degree top - e with <xi, w> = phi[w] for every w in basis(e).

    ``phi`` maps the basis monomials of degree e to ``int`` or ``Fraction``
    values; a monomial it omits counts as 0, and any other key, or a degree
    e outside 0..top, raises ``InvalidPresentationError``.  The case follows
    from the ring: an exterior algebra's xi is the nonzero part of phi
    re-keyed by ``_by_dual``, and a model-backed quotient pairs each key
    with its ``dual(key)``.  Any other ring (a tensor product) raises
    ``InvalidPresentationError``, and a model dual that does not pair to
    the identity raises ``InconsistentPresentationError``.

    >>> A = exterior_algebra([3, 5, 7, 9])
    >>> A.basis(12)
    [(0, 1, 1, 0), (1, 0, 0, 1)]
    >>> poincare_dual(A, {(0, 1, 1, 0): 2, (1, 0, 0, 1): 1}, 12)
    e5^1*e7^1 + 2*e3^1*e9^1
    """
    if any(not isinstance(c, (int, Fraction)) for c in phi.values()):
        raise InvalidPresentationError("inexact value in the pairing functional")
    if not 0 <= e <= algebra.top_degree:
        raise InvalidPresentationError(f"degree {e} is outside 0..{algebra.top_degree}")
    positions = algebra.basis_positions(e)
    for w in phi:
        if w not in positions:
            raise InvalidPresentationError(f"{w!r} is not a basis monomial of degree {e}")
    if algebra.kind == "exterior":
        xi = Element(algebra, {k: v for k, v in _by_dual(algebra, phi).items() if v})
    elif algebra._model is not None:
        xi = _model_dual(algebra, phi, e)
    else:
        raise InvalidPresentationError(f"a {algebra.kind} ring has no dual basis")
    # Tripwire on one column (check_gysin_soundness checks them all):
    # <xi, w0> is the top-key coefficient of class(xi)*w0 over c, a chain
    # of products that reads no dual(key) and forms no normal form.
    cls = algebra._class_of(xi.terms)
    basis = algebra.basis(e)
    if basis:
        top, c = algebra._top_class()
        if (algebra._class_of_product(cls, {basis[0]: 1}).get(top, 0)
                != c * phi.get(basis[0], 0)):
            raise InconsistentPresentationError(
                f"dual basis of degree {e} does not pair to the identity")
    return xi


def _model_dual(algebra, phi, e):
    """Contraction against a self-dual model basis: key mu pairs with
    dual(mu) to 1/c, where c is the model coefficient of the canonical top
    monomial, and to 0 with every other key of dual(mu)'s degree."""
    model = algebra._model
    d = algebra.top_degree - e
    duals = [model.dual(k) for k in model.keys(e)]
    if len(set(duals)) != len(duals) or set(duals) != set(model.keys(d)):
        raise InconsistentPresentationError(
            f"model dual does not map degree {e} one-to-one onto degree {d}")
    _, c = algebra._top_class()
    # Key i's standard coordinates are the tag part (column n + j for basis
    # monomial j) of the degree-e conversion's monic pivot row i.
    basis = algebra.basis(e)
    n = len(basis)
    phi_keys = algebra._std_convert[e].pivot_row_dots(
        {n + j: phi[w] for j, w in enumerate(basis) if phi.get(w)})
    x = {duals[i]: c * phi_keys[i] for i in sorted(phi_keys)}
    return Element(algebra, algebra._model_coords_to_std(x, d))


def is_divisible(v, g):
    """Witness w with g*w == v, or None when no such element exists."""
    alg = v.algebra
    gname = g.name if isinstance(g, Generator) else g
    ge = alg.gen(gname)
    gdeg = alg.generator(gname).degree
    if v.is_zero():
        return alg.zero()
    dv = v.homogeneous_degree()
    dw = dv - gdeg
    if dw < 0 or alg.dims(dw) == 0:
        return None
    columns = [alg.coords(ge * alg.basis_element(m), dv) for m in alg.basis(dw)]
    sol, _ = solve(columns, alg.coords(v, dv))
    if sol is None:
        return None
    return alg.element_from_coords(sol, dw)


def ideal_basis_in_degree(ideal_gens, d):
    """Echelonized basis of the degree-d piece of the ideal they generate."""
    if not ideal_gens:
        return []
    alg = ideal_gens[0].algebra
    if any(g.algebra is not alg for g in ideal_gens):
        raise ValueError("ideal generators belong to different algebras")
    if d < 0 or d > alg.top_degree or alg.dims(d) == 0:
        return []
    rref = SparseRREF()
    pos = alg.basis_positions(d)
    for gi in ideal_gens:
        if gi.is_zero():
            continue
        dg = gi.homogeneous_degree()
        dm = d - dg
        if dm < 0:
            continue
        for m in alg.basis(dm):
            prod = gi * alg.basis_element(m)
            row = {pos[mm]: c for mm, c in prod.terms.items()}
            if row:
                rref.add(row)
    basis = alg.basis(d)
    pivot_rows = rref.pivot_rows
    return [Element(alg, {basis[c]: v for c, v in pivot_rows[p].items()})
            for p in sorted(pivot_rows)]


def pairs_nontrivially_with_ideal(v, ideal_gens):
    """A witness u in the ideal with <v, u> nonzero, or None.

    Existence of u says exactly that v is not orthogonal to the ideal, i.e.
    v survives the map whose kernel is the ideal's orthogonal complement.
    A functional vanishes on the ideal's degree-du piece iff it vanishes on
    the spanning products m*g_i (m a basis monomial), so u is the first of
    those that pairs nonzero, generators in order and m in basis order.

    <v, m*g> = +-<m, v*g> is read by contraction: the class V of v*g is
    formed once per generator, and <m, v*g> is c^-1 times the contraction
    of class(m) with V, which a nonzero test does not need.  So the only
    other product formed is the returned m*g.  Zero generators are
    skipped; a generator of another ring, or an inhomogeneous v or
    generator, raises ``ValueError``.
    """
    alg = v.algebra
    if v.is_zero():
        return None
    du = alg.top_degree - v.homogeneous_degree()
    cv = alg._class_of(v.terms)
    for g in ideal_gens:
        if g.is_zero():
            continue
        v._check_owner(g)
        ms = alg.basis(du - g.homogeneous_degree())
        if ms:
            vg = _by_dual(alg, alg._class_of_product(cv, g.terms))
            for m in ms:
                if _contract(alg._mont_class(m), vg):
                    return alg.basis_element(m) * g
    return None


def _by_dual(alg, cls):
    """A class of ``alg`` re-keyed by its duals: key k's coefficient times
    s_k (dual(k) * k = s_k * top key, 1 without odd generators) at dual(k)."""
    dual = alg._dual_key
    if not alg._odd_indices:
        return {dual(k): c for k, c in cls.items()}
    sign = alg._dual_sign
    return {dual(k): sign(k) * c for k, c in cls.items()}


def _contract(cls, keyed):
    """sum_k cls[k] * keyed[k].  With ``keyed = _by_dual(alg, A)`` and B of
    complementary degree, this is the top-key coefficient of A*B (each key
    pairs to the top key with its dual and to 0 with the rest), so c
    times the pairing of the elements with classes A and B, where
    ``alg._top_class()`` is (top key, c)."""
    get = keyed.get
    return sum(c * get(k, 0) for k, c in cls.items())
