"""Reference implementations that the tests hold production code against.

``FractionRREF`` and ``fraction_solve`` are the elimination over
``fractions.Fraction`` that ``dualcoh.linalg`` used before it went
fraction-free: every pivot row is stored monic and every update is rational.
``naive_product`` is the ring product before it was summed in place: every
term pair becomes a one-term dict that is added in, with the Koszul sign
counted by hand.  ``product_composition_image`` is the restriction image
of a product family before it was read off as monomials: the factors' total
classes multiplied out one product at a time.
``sequential_multiplicativity`` is the multiplicativity check before it
grouped morphisms by source: one fresh seeded draw and one product per pair
for every morphism, in instance order.  ``direct_quotient`` is the quotient
ring built by eager row reduction of every relation multiple, the
construction the model-backed quotients must reproduce.
``per_degree_monomials``, ``list_free_mul`` (with ``list_product``),
``vertical_strips`` and ``horizontal_strips`` are the monomial-layer
kernels before they shared work: the enumerator building its reach table
for the one degree it walks, the free product collecting odd generators
into lists for each pair, and the Pieri strip walks exploring every branch.
``StraighteningModel`` is the Lagrangian model before the Q-tilde basis:
square-free sigma monomials with a repeated sigma_k straightened by its
relation.  ``poincare_dual_by_solve`` is the dual class before every source
had a dual basis: one solve of the pairing system.  ``family_sl_imag_sp``
and ``family_sl_odd_real`` are the two special-linear constructors before
they shared one, each written out with its own generator ranges.
``witness_by_products`` is the witness search before rings read their
pairings by contraction: every spanning product m*g formed and paired in
full.  ``phi_by_full_images`` is the Gysin functional before targets read
it by contraction: f(w) formed in full for every basis monomial w of
degree top(B), and its top coefficient read.
``dense_pairing_matrix`` is the pairing matrix before exterior rings read
only each row's complement: every free product of the two bases formed.
They are slow and obviously exact, which is what a reference is for.
"""

import random
from fractions import Fraction
from itertools import product

from dualcoh.algebra import (
    Element,
    GradedAlgebra,
    _count_monomials,
    _quotient,
    pairing,
    pairing_matrix,
    poincare_dual,
    refuse_over_cap,
)
from dualcoh.catalog import FamilyInstance
from dualcoh.checks import CheckResult
from dualcoh.errors import (
    InconsistentPresentationError,
    InvalidPresentationError,
)
from dualcoh.linalg import SparseRREF, add_scaled, solve
from dualcoh.morphisms import apply, build_morphism, random_homogeneous
from dualcoh.rings import sp_group_algebra, su_algebra, su_so_algebra


def koszul_product(algebra, m1, m2):
    """``(sign, m1 + m2)`` for two ambient monomials, or None when an odd
    generator would appear twice.  Moving an odd generator of m2 past each
    larger odd generator of m1 costs one sign."""
    odd = [g.degree % 2 for g in algebra.generators]
    sign = 1
    for j, e2 in enumerate(m2):
        if odd[j] and e2:
            if m1[j]:
                return None
            sign *= (-1) ** sum(1 for i, e1 in enumerate(m1) if odd[i] and e1 and i > j)
    return sign, tuple(a + b for a, b in zip(m1, m2))


def per_degree_monomials(degrees, parities, d):
    """The exponent tuples of weighted degree d in ascending ``order_key``
    order, walked over a reach table built for degree d alone."""
    k = len(degrees)
    mask = (1 << (d + 1)) - 1
    reach = [[1]]
    for deg, par in zip(degrees, parities):
        emax = 1 if par else d // deg
        prev = reach[-1]
        row = [0] * (len(prev) + emax)
        for s, bits in enumerate(prev):
            for e in range(emax + 1):
                row[s + e] |= (bits << (e * deg)) & mask
        reach.append(row)
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


def list_free_mul(algebra, m1, m2):
    """``(sign, m1 + m2)`` or None, counting the Koszul inversions over two
    lists of the odd generators present."""
    odd = [i for i, g in enumerate(algebra.generators) if g.degree % 2]
    mont = tuple(a + b for a, b in zip(m1, m2))
    if not odd:
        return 1, mont
    o1 = [i for i in odd if m1[i]]
    o2 = [j for j in odd if m2[j]]
    inversions = 0
    for j in o2:
        if m1[j]:
            return None
        for i in o1:
            if i > j:
                inversions += 1
    return (-1 if inversions % 2 else 1), mont


def vertical_strips(p, q, lam, k):
    """Partitions from lam by a vertical k-strip inside the p x q box, every
    branch explored."""
    rows = min(p, len(lam) + k)
    base = list(lam) + [0] * (rows - len(lam))
    out = []
    delta = [0] * rows

    def rec(i, rem):
        if rem == 0:
            full = [base[j] + delta[j] for j in range(i)] + base[i:]
            out.append(tuple(v for v in full if v))
            return
        if i == rows or rem > rows - i:
            return
        prev = (base[i - 1] + delta[i - 1]) if i else q
        nv = base[i] + 1
        if nv <= prev and nv <= q:
            delta[i] = 1
            rec(i + 1, rem - 1)
            delta[i] = 0
        rec(i + 1, rem)

    rec(0, k)
    return out


def horizontal_strips(p, q, lam, k):
    """Partitions from lam by a horizontal k-strip inside the p x q box,
    every branch explored."""
    rows = min(p, len(lam) + 1)
    base = list(lam) + [0] * (rows - len(lam))
    out = []
    mu = [0] * rows

    def rec(i, rem):
        if i == rows:
            if rem == 0:
                out.append(tuple(v for v in mu if v))
            return
        upper = q if i == 0 else base[i - 1]
        upper = min(upper, base[i] + rem)
        for val in range(base[i], upper + 1):
            mu[i] = val
            rec(i + 1, rem - (val - base[i]))
        mu[i] = 0

    rec(0, k)
    return out


def list_product(a, b):
    """``a * b`` summed in place over ``list_free_mul``, then normal forms:
    the one product before its signs were memoised, term order included."""
    alg = a.algebra
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            hit = list_free_mul(alg, m1, m2)
            if hit is not None:
                sign, mont = hit
                acc[mont] = acc.get(mont, 0) + sign * c1 * c2
    out = {}
    for mont, c in acc.items():
        if c:
            add_scaled(out, c, alg.normal_form_monomial(mont))
    return Element(alg, out)


def naive_product(a, b):
    """``a * b``: free products with the Koszul sign, then normal forms."""
    alg = a.algebra
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            hit = koszul_product(alg, m1, m2)
            if hit is not None:
                sign, mont = hit
                add_scaled(acc, sign * c1 * c2, {mont: 1})
    out = {}
    for mont, c in acc.items():
        add_scaled(out, c, alg.normal_form_monomial(mont))
    return Element(alg, out)


def product_composition_image(H, classes, k):
    """Degree-k part of the product of the factors' total classes, where
    ``classes[i]`` names factor i's classes c_1, c_2, ... in order."""
    total = H.zero()

    def rec(i, rem, acc):
        nonlocal total
        if i == len(classes):
            if rem == 0:
                total = total + acc
            return
        rec(i + 1, rem, acc)
        for ki in range(1, min(len(classes[i]), rem) + 1):
            rec(i + 1, rem - ki, acc * H.gen(classes[i][ki - 1]))

    rec(0, k, H.one())
    return total


class FractionRREF:
    """Reduced row echelon form over Fraction with monic, mutually reduced rows."""

    def __init__(self):
        self.pivot_rows = {}  # pivot column -> monic row dict

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        out = dict(row)
        for c in [c for c in out if c in self.pivot_rows]:
            add_scaled(out, -out[c], self.pivot_rows[c])
        return out

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return None
        p = min(r)
        inv = 1 / Fraction(r.pop(p))
        r = {c: v * inv for c, v in r.items()}
        r[p] = Fraction(1)
        for prow in self.pivot_rows.values():
            if p in prow:
                add_scaled(prow, -prow[p], r)
        self.pivot_rows[p] = r
        return p


def fraction_solve(columns, rhs):
    """``(x, rank)`` for ``sum_j x_j * columns[j] = rhs`` by one tagged FractionRREF."""
    m = len(rhs)
    rref = FractionRREF()
    for j, col in enumerate(columns):
        row = {i: Fraction(v) for i, v in enumerate(col) if v}
        row[m + j] = Fraction(1)
        rref.add(row)
    rank = sum(1 for p in rref.pivot_rows if p < m)
    left = rref.reduce({i: Fraction(v) for i, v in enumerate(rhs) if v})
    if any(c < m for c in left):
        return None, rank
    return [-left.get(m + j, Fraction(0)) for j in range(len(columns))], rank


def sequential_multiplicativity(instances, seed=42, samples=100):
    """``check_morphism_multiplicativity`` as one pass over the morphisms."""
    count = 0
    for inst in instances:
        for m in (inst.restriction, inst.levi_restriction):
            if m is None:
                continue
            rng = random.Random(seed)
            for _ in range(samples):
                a = random_homogeneous(m.source, rng)
                b = random_homogeneous(m.source, rng)
                if apply(m, a * b) != apply(m, a) * apply(m, b):
                    return CheckResult("morphism-multiplicativity", False,
                                       f"{inst.family_id} {inst.parameters}")
            count += 1
    return CheckResult("morphism-multiplicativity", True,
                       f"{count} morphisms x {samples} samples, seed={seed}")


class DirectQuotient(GradedAlgebra):
    """A quotient whose bases and normal-form tables are filled for every
    degree up to the top by row-reducing the relation multiples."""

    def normal_form_monomial(self, mont):
        d = self.monomial_degree(mont)
        if d > self.top_degree:
            return {}
        return self._nf_table.get(d, {}).get(mont, {mont: 1})

    def _build_tables(self):
        """Bases and normal-form tables of every degree up to the top, and
        a check that nothing survives in the window above the top (which
        forces vanishing in all higher degrees, since every monomial there
        factors through the window)."""
        self._nf_table = {}  # degree -> {pivot mont: {standard mont: c}}
        degrees, parities = self._degrees, self._parities
        dmax = self.top_degree + max(degrees)
        counts = _count_monomials(degrees, parities, dmax)
        refuse_over_cap(max(counts))
        for d in range(dmax + 1):
            if counts[d] == 0:
                if d <= self.top_degree:
                    self._dims[d] = 0
                    self._basis[d] = []
                continue
            monts = list(per_degree_monomials(degrees, parities, d))[::-1]
            col = {m: i for i, m in enumerate(monts)}
            rref = SparseRREF()
            for rdeg, rpoly in self.relations:
                if rdeg > d:
                    continue
                for m in per_degree_monomials(degrees, parities, d - rdeg):
                    row = {}
                    for rm, rc in rpoly.items():
                        c = col[tuple(a + b for a, b in zip(m, rm))]
                        row[c] = row.get(c, 0) + rc
                    rref.add({c: v for c, v in row.items() if v})
            pivot_rows = rref.pivot_rows
            if d > self.top_degree:
                if rref.rank != counts[d]:
                    leftover = next(m for m in reversed(monts) if col[m] not in pivot_rows)
                    raise InconsistentPresentationError(
                        f"nonzero class above expected top degree: "
                        f"{self.monomial_string(leftover)} in degree {d}")
                continue
            self._basis[d] = [m for m in reversed(monts) if col[m] not in pivot_rows]
            self._dims[d] = len(self._basis[d])
            self._nf_table[d] = {
                monts[p]: {monts[c]: -v for c, v in row.items() if c != p}
                for p, row in pivot_rows.items()}
        if self._dims.get(0) != 1 or self._dims.get(self.top_degree) != 1:
            raise InconsistentPresentationError(
                f"degree 0 and top degree must be one-dimensional, got "
                f"{self._dims.get(0)} and {self._dims.get(self.top_degree)}")


def direct_quotient(generators, relations, top_degree):
    """The quotient of ``model_quotient_algebra``'s presentation, with the
    caller's expected top degree in place of a model's and degrees above it
    checked to vanish."""
    q = _quotient(generators, relations, top_degree)
    alg = DirectQuotient(q.kind, q.generators, q.relations, q.top_degree)
    alg._build_tables()
    return alg


class StraighteningModel:
    """Model of H*(Sp(2g)/U(g)) on the 2^g square-free monomials.

    Keys are 0/1 exponent tuples over sigma_1..sigma_g (a basis, by
    Pragacz's Q-tilde-polynomial theory; not the standard monomials).  A
    repeated sigma_k is straightened by the degree-4k relation
        sigma_k^2 = (-1)^(k+1) * 2 * sum_{j<k} (-1)^j sigma_j sigma_{2k-j},
    with sigma_0 = 1 and sigma_k = 0 for k > g; the rewrite terminates, as
    it strictly increases the sum of squared indices.  It has no ``dual``:
    the sigma_S basis is not self-dual.
    """

    def __init__(self, g):
        self.g = g
        self.top_degree = g * (g + 1)
        self.one = {(0,) * g: 1}
        self._memo = {}
        self._keys = None

    def keys(self, d):
        """The keys of degree d, in ``product((0, 1), repeat=g)`` order."""
        if self._keys is None:
            self._keys = {}
            for key in product((0, 1), repeat=self.g):
                d_key = sum(2 * k for k, e in enumerate(key, 1) if e)
                self._keys.setdefault(d_key, []).append(key)
        return self._keys.get(d, [])

    def mult(self, cls, i):
        out = {}
        for key, c in cls.items():
            add_scaled(out, c, self._times(key, i + 1))
        return out

    def _times(self, key, k):
        """sigma_key * sigma_k, straightened; memoised per (key, k)."""
        if k == 0:
            return {key: 1}
        if k > self.g:
            return {}
        out = self._memo.get((key, k))
        if out is None:
            flipped = key[:k - 1] + (1 - key[k - 1],) + key[k:]
            if not key[k - 1]:
                out = {flipped: 1}
            else:  # sigma_key = sigma_k * sigma_flipped: straighten sigma_k^2
                out = {}
                for j in range(k):
                    for mid, c in self._times(flipped, j).items():
                        add_scaled(out, (-1) ** (k + 1 + j) * 2 * c, self._times(mid, 2 * k - j))
            self._memo[(key, k)] = out
        return out


def poincare_dual_by_solve(algebra, phi, e):
    """The xi of degree top - e with <xi, w> = phi[w] on basis(e), by one
    tagged solve of the n x n pairing system; any ring with a nondegenerate
    pairing."""
    d = algebra.top_degree - e
    unknowns, equations = algebra.basis(d), algebra.basis(e)
    columns = pairing_matrix(algebra, d)
    sol, rank = solve(columns, [phi.get(w, 0) for w in equations])
    if rank < len(unknowns):
        raise InconsistentPresentationError(
            f"pairing between degrees {d} and {e} is degenerate")
    if sol is None:
        raise InconsistentPresentationError(
            "dual-class system is infeasible; morphism or presentation is wrong")
    return algebra.element_from_coords(sol, d)


def family_sl_imag_sp(n):
    """Symplectic subgroup of a special linear group over an imaginary
    quadratic field: duals SU(2n) and compact Sp(2n).

    Restriction keeps exactly the generators of degree 3 mod 4.  The kernel
    ideal and the compact-support ideal are both generated by the top
    generator e_{4n-1}; the principal-Levi data (an SU(2n-1) dual) feeds
    the ghost certificate.  n = 1 is accepted but degenerate (H = G, no
    Levi inside SU(1)), so it carries no ghost data.
    """
    if n < 1:
        raise InvalidPresentationError(f"family sl-imag-sp needs n >= 1, got {n}")
    G = su_algebra(2 * n)
    H = sp_group_algebra(n)
    images = {f"e{d}": H.gen(f"e{d}") for d in range(3, 4 * n, 4)}
    restriction = build_morphism(G, H, images)
    top_name = f"e{4 * n - 1}"
    inst = FamilyInstance(
        family_id="sl-imag-sp",
        parameters={"n": n},
        dual_G=G,
        dual_H=H,
        restriction=restriction,
        franke_ideal=[G.gen(top_name)],
        compact_support_generator=top_name,
    )
    if n >= 2:
        levi = su_algebra(2 * n - 1)
        levi_images = {f"e{d}": levi.gen(f"e{d}") for d in range(3, 4 * n - 2, 2)}
        inst.levi_restriction = build_morphism(G, levi, levi_images)
        inst.levi_franke_generator = f"e{4 * n - 3}"
        inst.notes["discrepancy"] = (
            f"compact-support divisibility is read against the top generator "
            f"e{4 * n - 1}; an e{4 * n - 3} reading would be vacuous, since the "
            f"dual class e5^...^e{4 * n - 3} contains e{4 * n - 3} as a factor.")
    return inst


def family_sl_odd_real(n):
    """Odd special linear group over a totally real field inside its
    restriction of scalars: duals SU(2n+1) and SU(2n+1)/SO(2n+1).

    The target ring lives on generators of degree 1 mod 4, so the
    restriction keeps exactly those generators (this is also forced by the
    closed form of the dual class, e3^e7^...^e_{4n-1}).
    """
    if n < 1:
        raise InvalidPresentationError(f"family sl-odd-real needs n >= 1, got {n}")
    G = su_algebra(2 * n + 1)
    H = su_so_algebra(n)
    images = {f"e{d}": H.gen(f"e{d}") for d in range(5, 4 * n + 2, 4)}
    restriction = build_morphism(G, H, images)
    top_name = f"e{4 * n + 1}"
    levi = su_algebra(2 * n)
    levi_images = {f"e{d}": levi.gen(f"e{d}") for d in range(3, 4 * n, 2)}
    inst = FamilyInstance(
        family_id="sl-odd-real",
        parameters={"n": n},
        dual_G=G,
        dual_H=H,
        restriction=restriction,
        franke_ideal=[G.gen(top_name)],
        compact_support_generator=top_name,
        levi_restriction=build_morphism(G, levi, levi_images),
        levi_franke_generator=f"e{4 * n - 1}",
    )
    inst.notes["discrepancy"] = (
        f"compact-support divisibility is read against the top generator "
        f"e{4 * n + 1}; an e{4 * n - 1} reading would be vacuous, since the "
        f"dual class e3^e7^...^e{4 * n - 1} contains e{4 * n - 1} as a factor.")
    return inst


def witness_by_products(v, ideal_gens):
    """The first spanning product m*g (generators in order, m in basis
    order) that pairs nonzero with v, or None; each product formed in full."""
    alg = v.algebra
    if v.is_zero():
        return None
    du = alg.top_degree - v.homogeneous_degree()
    for g in ideal_gens:
        if g.is_zero():
            continue
        for m in alg.basis(du - g.homogeneous_degree()):
            u = alg.basis_element(m) * g
            if pairing(v, u):
                return u
    return None


def phi_by_full_images(morphism):
    """phi[w] = top-coefficient_B(f(w)) for each w of basis(top(B)), each
    f(w) formed in full."""
    src, tgt = morphism.source, morphism.target
    tgt_top = tgt.canonical_top_monomial()
    return {w: apply(morphism, src.basis_element(w)).coefficient(tgt_top)
            for w in src.basis(tgt.top_degree)}


def gysin_by_full_images(morphism):
    """The dual class contracted from ``phi_by_full_images``."""
    return poincare_dual(morphism.source, phi_by_full_images(morphism),
                         morphism.target.top_degree)


def dense_pairing_matrix(alg, d):
    """The pairings of basis(d) with basis(top - d), every free product read."""
    top = alg.canonical_top_monomial()
    cols = alg.basis(alg.top_degree - d)
    rows = []
    for u in alg.basis(d):
        row = []
        for w in cols:
            hit = alg._free_mul(u, w)
            row.append(hit[0] * alg.normal_form_monomial(hit[1]).get(top, 0) if hit else 0)
        rows.append(row)
    return rows
