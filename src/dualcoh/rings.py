"""Builders for the compact-dual cohomology rings used by the catalog.

Exterior algebras come straight from the generic constructor.  Both
quotient families are model-backed (``model_quotient_algebra``) on a
self-dual Schubert basis with Pieri-rule multiplication: Q-tilde classes
(strict partitions inside (g, ..., 1)) for the Lagrangian-Grassmannian
rings, Schur classes (partitions in a p x q box) for the (sigma, tau)
Grassmannian presentations.  The two models share one memoised product
and one key lookup, each over a table built on first use.  The Schur model
walks vertical strips only: a horizontal strip is a conjugate vertical one.
The exposed basis and normal forms follow the row-reduction contract; the
direct row reduction of the relation span is the reference the tests
compare against.

Every builder takes only its ranks and caches its rings by them, never by
the monomial cap (the caller's ``algebra.monomial_cap``).  The product
families' factors are these cached rings themselves; the catalog names a
product's generators once, on the tensor product.
"""

from functools import cached_property
from itertools import combinations_with_replacement, product

from .algebra import exterior_algebra, model_quotient_algebra, refuse_over_cap
from .errors import InvalidPresentationError
from .linalg import add_scaled

# Every ring built so far, by builder and arguments: equal arguments give one
# object whatever the cap, and a hit is refused as a fresh build under the
# current cap would be.
_RING_CACHE = {}


def require_int_ranks(what, **ranks):
    """Refuse any rank that is not an ``int`` (a ``bool`` included)."""
    for name, v in ranks.items():
        if type(v) is not int:
            raise InvalidPresentationError(f"{what}: rank {name} must be an int, got {v!r}")


def _cached(build, *args):
    key = (build, *args)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = _RING_CACHE[key] = build(*args)
    else:
        refuse_over_cap(ring.worst_count)
    return ring


def clear_ring_cache():
    """Forget every ring built so far; later builder calls build afresh."""
    _RING_CACHE.clear()


# --------------------------------------------------------- exterior duals


def _su_algebra(n):
    if n < 2:
        raise InvalidPresentationError(f"SU(n) dual needs n >= 2, got {n}")
    return exterior_algebra(list(range(3, 2 * n, 2)))


def su_algebra(n):
    """H*(SU(n)): exterior on e3, e5, ..., e_{2n-1}.  Needs n >= 2."""
    require_int_ranks("SU(n) dual", n=n)
    return _cached(_su_algebra, n)


def _sp_group_algebra(n):
    if n < 1:
        raise InvalidPresentationError(f"Sp(2n) dual needs n >= 1, got {n}")
    return exterior_algebra([4 * j - 1 for j in range(1, n + 1)])


def sp_group_algebra(n):
    """H*(compact Sp(2n) group): exterior on e3, e7, ..., e_{4n-1}."""
    require_int_ranks("Sp(2n) dual", n=n)
    return _cached(_sp_group_algebra, n)


def _su_so_algebra(n):
    if n < 1:
        raise InvalidPresentationError(f"SU/SO dual needs n >= 1, got {n}")
    return exterior_algebra([4 * j + 1 for j in range(1, n + 1)])


def su_so_algebra(n):
    """H*(SU(2n+1)/SO(2n+1)): exterior on e5, e9, ..., e_{4n+1}."""
    require_int_ranks("SU/SO dual", n=n)
    return _cached(_su_so_algebra, n)


# ------------------------------------------------------- Lagrangian rings


def lagrangian_relations(g):
    """Graded components of prod_i (1 - x_i^2) = 1 in elementary symmetric terms.

    The degree-4s component is sum_{j+k=2s} (-1)^j sigma_j sigma_k; odd
    total components cancel identically and are omitted.
    """
    rels = []
    for s in range(1, g + 1):
        poly = {}
        for j in range(0, 2 * s + 1):
            k = 2 * s - j
            if j > g or k > g:
                continue
            mont = [0] * g
            if j:
                mont[j - 1] += 1
            if k:
                mont[k - 1] += 1
            key = tuple(mont)
            poly[key] = poly.get(key, 0) + (-1) ** j
        poly = {m: c for m, c in poly.items() if c}
        if poly:
            rels.append(poly)
    return rels


class _PieriModel:
    """The product of the Schubert-basis models: each key's ``_step(key, i)``
    is memoised on its first use, and callers own what ``mult`` returns;
    ``keys(d)`` reads each model's ``_keys`` table, built on first use, so
    a ring refused by its monomial cap never lists its keys."""

    def keys(self, d):
        return self._keys.get(d, [])

    def mult(self, cls, i):
        out = {}
        memo = self._memo
        for key, c in cls.items():
            step = memo.get((key, i))
            if step is None:
                step = memo[(key, i)] = self._step(key, i)
            add_scaled(out, c, step)
        return out


class QTildeRing(_PieriModel):
    """Internal Schubert-basis model of H*(Sp(2g)/U(g)).

    Keys are the strict partitions lam inside (g, ..., 1), for Pragacz's
    classes Q-tilde_lam (1991); sigma_k is Q-tilde_(k), and multiplies by
    the Pieri rule of Hiller and Boe (1986).  The basis is self-dual.
    """

    def __init__(self, g):
        self.g = g
        self.top_degree = g * (g + 1)
        self.one = {(): 1}
        self._memo = {}

    @cached_property
    def _keys(self):
        # by degree, in the product((0, 1), repeat=g) order of the part sets
        keys = {}
        for parts in product((0, 1), repeat=self.g):
            lam = tuple(k for k in range(self.g, 0, -1) if parts[k - 1])
            keys.setdefault(2 * sum(lam), []).append(lam)
        return keys

    def dual(self, lam):
        """The parts of {1..g} that lam misses (Pragacz's duality).

        >>> QTildeRing(4).dual((3, 1))
        (4, 2)
        """
        return tuple(k for k in range(self.g, 0, -1) if k not in lam)

    def _step(self, lam, i):
        """Q_lam times sigma_{i+1}: each strict mu with mu_1 <= g,
        mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... and |mu| = |lam| + i + 1, times
        2^(a - (l(mu) - l(lam))), a the number of connected components of the
        shifted skew diagram mu/lam.  Row r grows to lam_{r-1} (to g if r = 0;
        one less if row r - 1 did not grow, as mu is strict), and by at least
        what later rows cannot take (``room``).  A grown row is a new
        component unless mu_r = lam_{r-1} joins it to the row above."""
        g = self.g
        rows = min(g, len(lam) + 1)
        base = lam + (0,) * (rows - len(lam))
        room = [0] * (rows + 1)
        for r in range(rows - 1, -1, -1):
            room[r] = room[r + 1] + (base[r - 1] if r else g) - base[r]
        out = {}
        mu = list(base)

        def rec(r, rem, a):
            lo = base[r]
            up = base[r - 1] if r else -1
            cap = up - (mu[r - 1] == up) if r else g
            first, last = lo + rem - room[r + 1], lo + rem
            for m in range(first if first > lo else lo, (last if last < cap else cap) + 1):
                mu[r] = m
                b = a + (m > lo and (m != up) - (not lo))
                if m == last:  # every box placed; only a new row can be empty
                    out[tuple(mu) if mu[-1] else tuple(mu[:-1])] = 1 << b
                else:
                    rec(r + 1, last - m, b)
            mu[r] = lo

        rec(0, i + 1, 0)
        return out


def _lagrangian_algebra(g):
    if g < 1:
        raise InvalidPresentationError(f"Lagrangian ring needs g >= 1, got {g}")
    gens = [(f"sigma{i}", 2 * i) for i in range(1, g + 1)]
    return model_quotient_algebra(gens, lagrangian_relations(g), QTildeRing(g))


def lagrangian_algebra(g):
    """H*(Sp(2g)/U(g)): Q[sigma_1..sigma_g] modulo prod (1 - x_i^2) = 1.

    >>> L = lagrangian_algebra(2)
    >>> L.gen("sigma1") * L.gen("sigma1")
    2*sigma2^1
    >>> L = lagrangian_algebra(3)
    >>> L.gen("sigma3") * L.gen("sigma3")
    0
    """
    require_int_ranks("Lagrangian ring", g=g)
    return _cached(_lagrangian_algebra, g)


# ----------------------------------------------------- Grassmannian rings


def _conjugate(lam):
    """The conjugate of the partition lam: part j counts the rows of length >= j."""
    out = []
    below = 0
    for rows in range(len(lam), 0, -1):
        out += [rows] * (lam[rows - 1] - below)
        below = lam[rows - 1]
    return tuple(out)


def _vertical_strips(p, q, lam, k):
    """Partitions obtained from lam by adding a vertical k-strip in the p x q box.

    At most one box per row; descending shape and the p x q box are
    enforced, so classes never leave the model.  A row takes a box only
    while it is shorter than q, so ``room[i]``, the rows from i on that
    are shorter than q, bounds what those rows can absorb; a row is
    entered only if the rows after it can take the boxes left.  The strip
    grows ``mu`` in place, and its first n rows are the nonzero ones.
    """
    rows = min(p, len(lam) + k)
    mu = list(lam) + [0] * (rows - len(lam))
    room = [0] * (rows + 1)
    for i in range(rows - 1, -1, -1):
        room[i] = room[i + 1] + (mu[i] < q)
    out = []

    def rec(i, rem, n):
        if rem == 0:
            out.append(tuple(mu[:n]))
            return
        nv = mu[i] + 1
        if nv <= (mu[i - 1] if i else q) and rem <= room[i + 1] + 1:
            mu[i] = nv
            rec(i + 1, rem - 1, n if nv > 1 else i + 1)
            mu[i] = nv - 1
        if rem <= room[i + 1]:
            rec(i + 1, rem, n)

    rec(0, k, len(lam))
    return out


class SchurRing(_PieriModel):
    """Internal Schur-basis model of H*(Gr(p, p+q)).

    Keys are partitions inside the p x q box (descending tuples), sorted
    per degree; classes are {partition: int} dicts.  Only e_k (vertical
    strips) and h_k (horizontal strips: by the involution omega, conjugates
    of vertical strips on lam') ever multiply, so the general
    Littlewood-Richardson rule never enters.  The basis is self-dual:
    ``dual`` pairs a partition with its complement in the box (Fulton,
    *Young Tableaux*, section 9.4).
    """

    def __init__(self, p, q):
        self.p = p
        self.q = q
        self.top_degree = 2 * p * q
        self.one = {(): 1}
        self._memo = {}

    @cached_property
    def _keys(self):
        keys = {}
        for lam in sorted(tuple(v for v in rows if v) for rows in
                          combinations_with_replacement(range(self.q, -1, -1), self.p)):
            keys.setdefault(2 * sum(lam), []).append(lam)
        return keys

    def dual(self, lam):
        """The complement of lam in the p x q box, rotated: s_lam * s_dual is
        the box class, and s_lam * s_mu has no box term for any other mu of
        that degree.

        >>> SchurRing(2, 3).dual((2,))
        (3, 1)
        """
        rows = list(lam) + [0] * (self.p - len(lam))
        return tuple(v for v in (self.q - part for part in reversed(rows)) if v)

    def _step(self, lam, i):
        """s_lam times sigma_{i+1} = e_{i+1} (i < p), else tau_j = (-1)^j h_j,
        whose strips are the conjugates of e_j's strips on lam'."""
        if i < self.p:
            return dict.fromkeys(_vertical_strips(self.p, self.q, lam, i + 1), 1)
        k = i + 1 - self.p
        strips = _vertical_strips(self.q, self.p, _conjugate(lam), k)
        return dict.fromkeys(map(_conjugate, strips), -1 if k % 2 else 1)


def grassmannian_relations(p, q):
    """Graded components of (1 + sigma_1 + ... )(1 + tau_1 + ...) = 1.

    Returns (generators, relations): generators are sigma_1..sigma_p then
    tau_1..tau_q; relation m is sum_{i+j=m} sigma_i tau_j for 1 <= m <= p+q.
    """
    gens = [(f"sigma{i}", 2 * i) for i in range(1, p + 1)]
    gens += [(f"tau{j}", 2 * j) for j in range(1, q + 1)]
    k = p + q
    rels = []
    for m in range(1, p + q + 1):
        poly = {}
        for i in range(0, m + 1):
            j = m - i
            if i > p or j > q:
                continue
            mont = [0] * k
            if i:
                mont[i - 1] += 1
            if j:
                mont[p + j - 1] += 1
            poly[tuple(mont)] = 1
        if poly:
            rels.append(poly)
    return gens, rels


def _grassmannian_algebra(p, q):
    if p < 1 or q < 1:
        raise InvalidPresentationError(f"Grassmannian ring needs p, q >= 1, got ({p}, {q})")
    gens, rels = grassmannian_relations(p, q)
    return model_quotient_algebra(gens, rels, SchurRing(p, q))


def grassmannian_algebra(p, q):
    """H*(Gr(p, p+q)) = H*(U(p,q) compact dual), presented on sigma's and tau's.

    sigma_i and tau_j are the elementary symmetric classes of the two Chern
    root families; the presentation relation is the graded identity
    (sum sigma)(sum tau) = 1.  Internally backed by the Schur model; the
    exposed basis follows the standard-monomial contract.
    """
    require_int_ranks("Grassmannian ring", p=p, q=q)
    return _cached(_grassmannian_algebra, p, q)


# ------------------------------------------------------------- ring table


def bind_parameters(what, names, given):
    """The values of ``given`` for ``names``, in order; ``given`` must name
    exactly ``names``, else ``what`` is refused."""
    if set(given) != set(names):
        raise InvalidPresentationError(f"{what} needs exactly {', '.join(names)}; "
                                       f"got {', '.join(map(str, given)) or 'none'}")
    return [given[k] for k in names]


# Ring id -> (builder, its parameters in order).
RINGS = {
    "su": (su_algebra, ("n",)),
    "sp-group": (sp_group_algebra, ("n",)),
    "su-so": (su_so_algebra, ("n",)),
    "lagrangian": (lagrangian_algebra, ("g",)),
    "grassmannian": (grassmannian_algebra, ("p", "q")),
}
