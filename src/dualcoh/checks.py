"""Named check suites: oracles, ring identities, and property tests.

Three suites back both the CLI ``check`` subcommand and the acceptance
tests:

* ``oracle``           -- Betti numbers against independent combinatorial
                          enumerators and the presentation's Hilbert series,
                          and presentation relations against brute-force
                          expansion in the Chern root variables.
* ``paper-identities`` -- exact ring identities the catalog families rely
                          on (truncation products, top-degree generators,
                          Kahler-power identities, substitution kernels).
* ``properties``       -- seeded structural properties over the catalog
                          sweep: duality, palindromicity, commutativity,
                          associativity, morphism multiplicativity, Gysin
                          soundness, witness round-trips, verdict scalar
                          invariance.  The sweep streams: each instance is
                          built, decided, read by every check and dropped.

Every enumerator here is deliberately independent of the ring machinery:
subsets and partitions are counted directly, and relation expansion works
on raw exponent dictionaries in the root variables.
"""

import random
import weakref
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul

from .algebra import (
    ideal_basis_in_degree,
    pairing,
    pairing_matrix,
    pairs_nontrivially_with_ideal,
    poincare_polynomial,
)
from .catalog import (
    build_family,
    decide_ghost,
    decide_nonvanishing,
    siegel_theta,
    sweep_parameter_list,
)
from .linalg import SparseRREF, add_scaled
from .morphisms import (
    apply,
    build_morphism,
    compose,
    multiplicative_on,
    random_homogeneous,
    sample_products,
)
from .rings import (
    grassmannian_algebra,
    grassmannian_relations,
    lagrangian_algebra,
    lagrangian_relations,
)

SUITE_NAMES = ("oracle", "paper-identities", "properties")


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=[""])


# ------------------------------------------------- independent enumerators


def _subset_sum_betti(degrees):
    """Betti numbers of an exterior algebra by direct subset enumeration."""
    out = [0] * (sum(degrees) + 1)
    for mask in range(1 << len(degrees)):
        s = sum(d for i, d in enumerate(degrees) if mask >> i & 1)
        out[s] += 1
    return out


def strict_partition_betti(g):
    """Betti numbers of the rank-g Lagrangian ring by subset enumeration.

    Degree-2k dimension = number of subsets of {1..g} summing to k.
    """
    return _subset_sum_betti(range(2, 2 * g + 1, 2))


def box_partition_betti(p, q):
    """Betti numbers of Gr(p, p+q) by counting partitions in the p x q box."""
    out = [0] * (2 * p * q + 1)

    def rec(rows_left, maxpart, total):
        out[2 * total] += 1
        if rows_left == 0:
            return
        for part in range(1, maxpart + 1):
            rec(rows_left - 1, part, total + part)

    rec(p, q, 0)
    return out


def complete_intersection_betti(ring):
    """Betti numbers forced by a presentation whose relations form a regular
    sequence: prod (1 - t^deg r) / prod (1 - t^deg g) over the ring's relations
    and generators, truncated at its top degree."""
    top = ring.top_degree
    out = [1] + [0] * top
    for rdeg, _ in ring.relations:
        for d in range(top, rdeg - 1, -1):
            out[d] -= out[d - rdeg]
    for gen in ring.generators:
        for d in range(gen.degree, top + 1):
            out[d] += out[d - gen.degree]
    return out


# ------------------------------------ brute-force expansion in root variables


def _xpoly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        add_scaled(out, ca, {tuple(x + y for x, y in zip(ma, mb)): cb for mb, cb in b.items()})
    return out


def _elementary_symmetric(nvars, j, offset=0, total=None):
    """e_j in variables offset..offset+nvars-1 of a total-length tuple."""
    total = total or nvars
    out = {}
    from itertools import combinations
    for combo in combinations(range(offset, offset + nvars), j):
        key = tuple(1 if i in combo else 0 for i in range(total))
        out[key] = 1
    return out


def _expand_generator_poly(poly, blocks):
    """Expand a relation over sigma/tau exponent tuples into root variables.

    ``blocks`` lists (nvars, offset) per generator; generator i stands for
    the elementary symmetric polynomial of its 1-based index within its
    variable block.
    """
    total = max(off + n for n, off in blocks)
    out = {}
    for mont, c in poly.items():
        term = {tuple([0] * total): Fraction(c)}
        for gi, e in enumerate(mont):
            nvars, offset = blocks[gi]
            j = sum(1 for other in range(gi) if blocks[other] == blocks[gi]) + 1
            for _ in range(e):
                term = _xpoly_mul(term,
                                  _elementary_symmetric(nvars, j, offset, total))
        add_scaled(out, 1, term)
    return out


def _root_product_by_degree(n, power, sign):
    """prod_i (1 + sign * x_i^power) - 1 over n root variables (each of
    degree 2), split by graded degree."""
    zero = (0,) * n
    poly = {zero: 1}
    for i in range(n):
        poly = _xpoly_mul(poly, {zero: 1, zero[:i] + (power,) + zero[i + 1:]: sign})
    poly.pop(zero)
    by_degree = {}
    for k, v in poly.items():
        by_degree.setdefault(2 * sum(k), {})[k] = v
    return by_degree


def _relation_expansion(name, cases, detail):
    """Each case's (label, relations, blocks, expected root-variable
    expansion), read lazily: the first mismatch ends the check."""
    for label, relations, blocks, expected in cases:
        got = {}
        for poly in relations:
            expanded = _expand_generator_poly(poly, blocks)
            degs = {2 * sum(k) for k in expanded}
            if len(degs) != 1:
                return CheckResult(name, False, f"{label}: relation expansion not homogeneous")
            got[degs.pop()] = expanded
        if got != expected:
            bad = sorted(d for d in set(got) | set(expected) if got.get(d) != expected.get(d))
            return CheckResult(name, False, f"{label}: expansion mismatch at degrees {bad}")
    return CheckResult(name, True, detail)


def check_lagrangian_relation_expansion(gmax=4):
    """Catalog relation components equal the root-variable expansion, g <= gmax."""
    return _relation_expansion("lagrangian-relation-expansion", (
        (f"g={g}", lagrangian_relations(g), [(g, 0)] * g, _root_product_by_degree(g, 2, -1))
        for g in range(1, gmax + 1)), f"g <= {gmax}")


def check_grassmannian_relation_expansion(pq_max=6):
    """Presentation components equal the root-variable expansion, p+q <= pq_max."""
    return _relation_expansion("grassmannian-relation-expansion", (
        (f"(p,q)=({p},{q})", grassmannian_relations(p, q)[1], [(p, 0)] * p + [(q, p)] * q,
         _root_product_by_degree(p + q, 1, 1))
        for p in range(1, pq_max) for q in range(p, pq_max - p + 1)), f"p+q <= {pq_max}")


# ---------------------------------------------------------------- oracles


def _betti_oracle(name, cases, detail):
    """Each case's (label, ring, enumerated Betti numbers, total dimension,
    its text), read lazily: the first mismatch ends the check.  The ring's
    Betti numbers must also equal its presentation's Hilbert series."""
    for label, ring, betti, total, total_text in cases:
        pp = poincare_polynomial(ring)
        if pp != betti:
            return CheckResult(name, False, f"{label}: Betti mismatch")
        if pp != complete_intersection_betti(ring):
            return CheckResult(name, False, f"{label}: Betti numbers differ from the "
                                            f"presentation's Hilbert series")
        if ring.total_dimension != total:
            return CheckResult(name, False,
                               f"{label}: total {ring.total_dimension} != {total_text}")
    return CheckResult(name, True, detail)


def check_lagrangian_poincare(gmax=6):
    """Lagrangian Betti data, g <= gmax, against the subset enumerator and
    against the Hilbert series of the ring's own presentation."""
    return _betti_oracle("lagrangian-poincare", (
        (f"g={g}", lagrangian_algebra(g), strict_partition_betti(g), 2 ** g, 2 ** g)
        for g in range(1, gmax + 1)), f"g <= {gmax}")


def check_grassmannian_poincare(pq_max=5):
    """Grassmannian Betti data, p <= q <= pq_max, against the box-partition
    enumerator and against the Hilbert series of the ring's own presentation."""
    return _betti_oracle("grassmannian-poincare", (
        (f"({p},{q})", grassmannian_algebra(p, q), box_partition_betti(p, q),
         comb(p + q, p), f"C({p + q},{p})")
        for p in range(1, pq_max + 1) for q in range(p, pq_max + 1)), f"p <= q <= {pq_max}")


def oracle_checks():
    return [
        check_lagrangian_poincare(),
        check_grassmannian_poincare(),
        check_lagrangian_relation_expansion(),
        check_grassmannian_relation_expansion(),
    ]


# -------------------------------------------------------- ring identities


def check_square_truncation(gmax=6):
    """sigma_k^2 sigma_{k+1} ... sigma_g vanishes for all k <= g <= gmax."""
    for g in range(1, gmax + 1):
        ring = lagrangian_algebra(g)
        for k in range(1, g + 1):
            prod = reduce(mul, [ring.gen(f"sigma{j}") for j in range(k, g + 1)],
                          ring.gen(f"sigma{k}"))
            if not prod.is_zero():
                return CheckResult("lagrangian-square-truncation", False,
                                   f"g={g} k={k}: product is {prod!r}")
    return CheckResult("lagrangian-square-truncation", True, f"k <= g <= {gmax}")


def check_top_product(gmax=6):
    """sigma_1...sigma_g spans the top degree and the Kahler power hits it."""
    for g in range(1, gmax + 1):
        ring = lagrangian_algebra(g)
        prod = reduce(mul, [ring.gen(f"sigma{j}") for j in range(1, g + 1)])
        if prod.is_zero():
            return CheckResult("lagrangian-top-product", False,
                               f"g={g}: sigma_1..sigma_g = 0")
        power = reduce(mul, [ring.gen("sigma1")] * (g * (g + 1) // 2))
        lam = _proportionality(power, prod)
        if lam is None or lam == 0:
            return CheckResult("lagrangian-top-product", False,
                               f"g={g}: Kahler power not a nonzero multiple")
    return CheckResult("lagrangian-top-product", True, f"g <= {gmax}")


def _proportionality(a, b):
    """lambda with a == lambda * b, or None; b must be nonzero."""
    if b.is_zero():
        return None
    mont, coeff = next(iter(b.terms.items()))
    lam = Fraction(a.coefficient(mont), coeff)
    return lam if a == lam * b else None


def _echelon(rows, pos):
    """The echelon form of ``rows``, each an iterable of (key, coefficient)
    pairs whose keys ``pos`` maps to columns; zero entries are left out."""
    rr = SparseRREF()
    for row in rows:
        rr.add({pos[k]: c for k, c in row if c})
    return rr


def check_top_tau_power(pq_max=5):
    """tau_q^p is nonzero in degree 2pq for p <= q <= pq_max."""
    for p in range(1, pq_max + 1):
        for q in range(p, pq_max + 1):
            ring = grassmannian_algebra(p, q)
            if reduce(mul, [ring.gen(f"tau{q}")] * p).is_zero():
                return CheckResult("grassmannian-top-tau-power", False,
                                   f"({p},{q}): tau_q^p = 0")
    return CheckResult("grassmannian-top-tau-power", True, f"p <= q <= {pq_max}")


def check_kahler_tau_identity(pq_max=5):
    """tau_q * sigma_1^{(p-1)q} is a nonzero multiple of tau_q^p, p <= q <= pq_max.

    The exact multiple is (-1)^{q(p-1)} times the number of standard
    tableaux of the (p-1) x q rectangle (1 only in degenerate shapes), so
    on-the-nose equality fails for most (p, q); the content of the identity
    is that both sides generate the top degree.  The scalar is reported.
    """
    scalars = []
    for p in range(1, pq_max + 1):
        for q in range(p, pq_max + 1):
            ring = grassmannian_algebra(p, q)
            tq = ring.gen(f"tau{q}")
            lhs = reduce(mul, [ring.gen("sigma1")] * ((p - 1) * q), tq)
            rhs = reduce(mul, [tq] * p)
            lam = _proportionality(lhs, rhs)
            if lam is None or lam == 0:
                return CheckResult("grassmannian-kahler-tau-identity", False,
                                   f"({p},{q}): {lhs!r} vs {rhs!r}")
            scalars.append(f"({p},{q}):{lam}")
    return CheckResult("grassmannian-kahler-tau-identity", True, " ".join(scalars))


def check_structural_zeros(gmax=6, pq_max=5):
    """sigma_p tau_q = 0 in the Grassmannian rings; sigma_g^2 = 0 in the
    Lagrangian rings (top graded components of the defining identities)."""
    for g in range(1, gmax + 1):
        ring = lagrangian_algebra(g)
        sg = ring.gen(f"sigma{g}")
        if not (sg * sg).is_zero():
            return CheckResult("structural-zeros", False, f"lagrangian g={g}: sigma_g^2 != 0")
    for p in range(1, pq_max + 1):
        for q in range(p, pq_max + 1):
            ring = grassmannian_algebra(p, q)
            if not (ring.gen(f"sigma{p}") * ring.gen(f"tau{q}")).is_zero():
                return CheckResult("structural-zeros", False,
                                   f"grassmannian ({p},{q}): sigma_p tau_q != 0")
    return CheckResult("structural-zeros", True, f"g <= {gmax}, p <= q <= {pq_max}")


def substitution_morphism(g):
    """Lagrangian(g) -> Lagrangian(g-1): sigma_k -> sigma_k, sigma_g -> 0."""
    src = lagrangian_algebra(g)
    tgt = lagrangian_algebra(g - 1)
    images = {f"sigma{k}": tgt.gen(f"sigma{k}") for k in range(1, g)}
    return build_morphism(src, tgt, images)


def check_substitution_kernel(gmax=5):
    """ker(Lagrangian(g) -> Lagrangian(g-1)) equals the ideal (sigma_g), per degree."""
    for g in range(2, gmax + 1):
        m = substitution_morphism(g)
        src, tgt = m.source, m.target
        ideal = [src.gen(f"sigma{g}")]
        for d in range(src.top_degree + 1):
            if src.dims(d) == 0:
                continue
            ideal_basis = ideal_basis_in_degree(ideal, d)
            for u in ideal_basis:
                if not apply(m, u).is_zero():
                    return CheckResult("substitution-kernel", False,
                                       f"g={g} d={d}: ideal element maps nonzero")
            # a zero image adds nothing to the rank
            images = (apply(m, src.basis_element(mont)).terms.items() for mont in src.basis(d))
            kernel_dim = src.dims(d) - _echelon(images, tgt.basis_positions(d)).rank
            if kernel_dim != len(ideal_basis):
                return CheckResult("substitution-kernel", False,
                                   f"g={g} d={d}: kernel dim {kernel_dim} != "
                                   f"ideal dim {len(ideal_basis)}")
    return CheckResult("substitution-kernel", True, f"2 <= g <= {gmax}")


def identity_checks():
    return [
        check_square_truncation(),
        check_top_product(),
        check_top_tau_power(),
        check_kahler_tau_identity(),
        check_structural_zeros(),
        check_substitution_kernel(),
    ]


# ------------------------------------------------------------- properties


CERTIFIED_RANGES = (
    ("sl-imag-sp", {"n": (2, 5)}),
    ("sl-odd-real", {"n": (1, 4)}),
    ("siegel-product", {"g": (2, 5)}),
    ("unitary-product", {"p": (1, 4), "q": (1, 4)}),
    ("sp-in-ugg", {"g": (1, 4)}),
)


def catalog_sweep_specs():
    """The certified instance list driving the property suites."""
    return [(fid, params) for fid, ranges in CERTIFIED_RANGES
            for params in sweep_parameter_list(fid, ranges)]


class _Tally:
    """One property check's state over a stream of instances.

    ``reads`` names the items it is fed (``"algebras"``, ``"morphisms"`` or
    ``"cases"``); ``step(item)`` returns a failure detail or None.  The
    tally counts the items it has read and keeps its first failure, after
    which it reads no more; ``passed`` formats a pass's detail, with the
    count as ``n``.
    """

    def __init__(self, name, reads, step, passed):
        self.name, self.reads, self.step, self.passed = name, reads, step, passed
        self.count, self.failure = 0, None

    def read(self, item):
        if self.failure is None:
            self.failure = self.step(item)
            self.count += 1

    def result(self):
        if self.failure is not None:
            return CheckResult(self.name, False, self.failure)
        return CheckResult(self.name, True, self.passed.format(n=self.count))


def _stream(cases, tallies):
    """Feed each ``(instance, verdict)`` of ``cases`` to every tally as it
    comes, and return their results.

    Each tally reads the instance's items of its kind: its rings new to the
    stream (G, H, then the Levi target), its morphisms (the restriction,
    then the Levi restriction), or the case itself.  Seen rings are kept by
    identity in a weak set, so the set holds no ring alive, and a ring that
    dies cannot be mistaken for a later one that reuses its ``id``.
    Nothing here keeps an instance once the next one comes.
    """
    rings = any(tally.reads == "algebras" for tally in tallies)
    seen = weakref.WeakSet()
    for inst, verdict in cases:
        levi = inst.levi_restriction
        items = {"algebras": [], "cases": [(inst, verdict)],
                 "morphisms": [(inst, m) for m in (inst.restriction, levi) if m is not None]}
        if rings:
            for alg in (inst.dual_G, inst.dual_H, levi and levi.target):
                if alg is not None and alg not in seen:
                    seen.add(alg)
                    items["algebras"].append(alg)
        for tally in tallies:
            for item in items[tally.reads]:
                tally.read(item)
    return [tally.result() for tally in tallies]


def _decided(specs):
    """Each spec's instance and verdict, built and decided only when the
    stream reaches it."""
    for fid, params in specs:
        inst = build_family(fid, params)
        yield inst, decide_nonvanishing(inst)


def _undecided(instances):
    return ((inst, None) for inst in instances)


def _alg_label(alg):
    return "/".join(g.name for g in alg.generators[:3]) + (
        "..." if len(alg.generators) > 3 else "")


def _duality():
    def step(alg):
        top = alg.top_degree
        for d in range(0, top // 2 + 1):
            nd = alg.dims(d)
            if nd != alg.dims(top - d):
                return f"dims {d}/{top - d} differ in {_alg_label(alg)}"
            if nd == 0:
                continue
            rr = _echelon(map(enumerate, pairing_matrix(alg, d)), range(nd))
            if rr.rank != nd:
                return f"degree {d} pairing rank {rr.rank} < {nd} in {_alg_label(alg)}"
    return _Tally("duality-nondegeneracy", "algebras", step, "{n} algebras")


def _palindromic():
    def step(alg):
        pp = poincare_polynomial(alg)
        if pp != pp[::-1]:
            return _alg_label(alg)
        if sum(pp) != alg.total_dimension:
            return f"{_alg_label(alg)}: sum mismatch"
    return _Tally("palindromic-betti", "algebras", step, "{n} algebras")


def _commutativity(seed, samples):
    rng = random.Random(seed)

    def step(alg):
        for _ in range(samples):
            a = random_homogeneous(alg, rng)
            b = random_homogeneous(alg, rng)
            if a.is_zero() or b.is_zero():
                continue
            sign = (-1) ** (a.homogeneous_degree() * b.homogeneous_degree())
            if a * b != sign * (b * a):
                return f"{_alg_label(alg)}: {a!r}, {b!r}"
    return _Tally("graded-commutativity", "algebras", step, f"seed={seed}")


def _associativity(seed, samples):
    rng = random.Random(seed)

    def step(alg):
        for _ in range(samples):
            a = random_homogeneous(alg, rng)
            b = random_homogeneous(alg, rng)
            c = random_homogeneous(alg, rng)
            if (a * b) * c != a * (b * c):
                return _alg_label(alg)
    return _Tally("associativity", "algebras", step, f"seed={seed}")


def _multiplicativity(seed, samples):
    """The pairs depend only on the source ring, so they are drawn once for
    each run of consecutive morphisms out of one source, and only that
    run's are held: a source that comes back later is drawn again."""
    source = triples = None

    def step(item):
        nonlocal source, triples
        inst, m = item
        if m.source is not source:
            source, triples = m.source, sample_products(m.source, samples, seed)
        if not multiplicative_on(m, triples):
            return f"{inst.family_id} {inst.parameters}"
    return _Tally("morphism-multiplicativity", "morphisms", step,
                  f"{{n}} morphisms x {samples} samples, seed={seed}")


def _gysin_soundness():
    def step(case):
        inst, v = case
        m = inst.restriction
        src, tgt = m.source, m.target
        xi = v.fundamental_class
        top_t = tgt.canonical_top_monomial()
        for w in src.basis(tgt.top_degree):
            we = src.basis_element(w)
            if pairing(xi, we) != apply(m, we).coefficient(top_t):
                return f"{inst.family_id} {inst.parameters}: fails at {src.monomial_string(w)}"
    return _Tally("gysin-soundness", "cases", step, "{n} instances")


def _witness_roundtrip():
    def step(case):
        inst, v = case
        if not v.nonvanishing:
            return None
        w = v.nonvanishing_witness
        du = inst.dual_G.top_degree - v.fundamental_class.homogeneous_degree()
        pos = inst.dual_G.basis_positions(du)
        basis = (u.terms.items() for u in ideal_basis_in_degree(inst.franke_ideal, du))
        residue = _echelon(basis, pos).reduce({pos[mm]: c for mm, c in w.terms.items()})
        if residue:
            return f"{inst.family_id} {inst.parameters}: witness outside ideal"
        if pairing(v.fundamental_class, w) == 0:
            return f"{inst.family_id} {inst.parameters}: witness pairs to zero"
    return _Tally("witness-roundtrip", "cases", step, "{n} instances")


def _scalar_invariance():
    def step(case):
        inst, v = case
        for lam in (Fraction(2), Fraction(-3), Fraction(7, 5)):
            scaled = lam * v.fundamental_class
            again = pairs_nontrivially_with_ideal(scaled, inst.franke_ideal)
            if (again is not None) != v.nonvanishing:
                return f"{inst.family_id} {inst.parameters}: lambda={lam}"
            if v.ghost is not None and decide_ghost(inst, scaled, again is not None) != v.ghost:
                return f"{inst.family_id} {inst.parameters}: ghost flip"
    return _Tally("verdict-scalar-invariance", "cases", step, "{n} instances")


def check_morphism_multiplicativity(instances, seed=42, samples=100):
    """Every restriction is multiplicative on the seeded pairs of its source;
    a failure names the earliest failing instance."""
    return _stream(_undecided(instances), [_multiplicativity(seed, samples)])[0]


def check_gysin_soundness(cases):
    """Each emitted dual class, from (instance, verdict) ``cases``, satisfies
    its defining identity on the full basis."""
    return _stream(cases, [_gysin_soundness()])[0]


def check_functoriality(seed=42, samples=20):
    """apply commutes with composition along the substitution chain."""
    rng = random.Random(seed)
    for g in (3, 4):
        m1 = substitution_morphism(g)
        m2 = substitution_morphism(g - 1)
        chain = compose(m2, m1)
        for _ in range(samples):
            a = random_homogeneous(m1.source, rng)
            if apply(chain, a) != apply(m2, apply(m1, a)):
                return CheckResult("functoriality", False, f"g={g}")
    return CheckResult("functoriality", True, f"seed={seed}")


def property_checks(seed=42, samples=100):
    """The property suite as one pass over the certified instances: each is
    built, decided, read by every check and dropped before the next."""
    results = _stream(_decided(catalog_sweep_specs()), [
        _duality(), _palindromic(), _commutativity(seed, 25), _associativity(seed, 10),
        _multiplicativity(seed, samples),
        _gysin_soundness(), _witness_roundtrip(), _scalar_invariance(),
    ])
    return results + [check_functoriality(seed=seed)]


SUITES = {
    "oracle": lambda seed: oracle_checks(),
    "paper-identities": lambda seed: identity_checks(),
    "properties": lambda seed: property_checks(seed=seed),
}


def run_suites(names=None, seed=42):
    """Run the named suites (default: all) and return their results."""
    names = list(names) if names else list(SUITE_NAMES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown check suite {name!r}; known: {', '.join(SUITE_NAMES)}")
        results.extend(SUITES[name](seed))
    return results


# ------------------------------------------------- instance-scoped checks


def _betti_product(bettis):
    """Betti numbers of a tensor product: the product of Poincare polynomials."""
    prod = {(0,): 1}
    for b in bettis:
        prod = _xpoly_mul(prod, {(d,): c for d, c in enumerate(b) if c})
    return [prod.get((d,), 0) for d in range(max(prod)[0] + 1)]


def _betti_oracle_for(family_id, params):
    """Independent Betti data for an instance's two rings, from parameters."""
    if family_id == "sl-imag-sp":
        n = params["n"]
        return (_subset_sum_betti(range(3, 4 * n, 2)),
                _subset_sum_betti([4 * j - 1 for j in range(1, n + 1)]))
    if family_id == "sl-odd-real":
        n = params["n"]
        return (_subset_sum_betti(range(3, 4 * n + 2, 2)),
                _subset_sum_betti([4 * j + 1 for j in range(1, n + 1)]))
    if family_id == "siegel-product":
        return (strict_partition_betti(params["g"]),
                _betti_product(strict_partition_betti(gi) for gi in params["parts"]))
    if family_id == "unitary-product":
        return (box_partition_betti(params["p"], params["q"]),
                _betti_product(box_partition_betti(pi, qi) for pi, qi in params["parts"]))
    if family_id == "sp-in-ugg":
        g = params["g"]
        return box_partition_betti(g, g), strict_partition_betti(g)
    raise ValueError(f"unknown family {family_id!r}")


def instance_oracle_checks(inst):
    want_g, want_h = _betti_oracle_for(inst.family_id, inst.parameters)
    ok_g = poincare_polynomial(inst.dual_G) == want_g
    ok_h = poincare_polynomial(inst.dual_H) == want_h
    return [CheckResult("betti-oracle", ok_g and ok_h,
                        "" if ok_g and ok_h else
                        f"G match={ok_g}, H match={ok_h}")]


def _sl_closed_form_check(inst, fc):
    """fc is a nonzero multiple of the closed-form generator product."""
    n = inst.parameters["n"]
    if inst.family_id == "sl-imag-sp":
        expected_degrees = [4 * j + 1 for j in range(1, n)]
    else:
        expected_degrees = [4 * j - 1 for j in range(1, n + 1)]
    G = inst.dual_G
    mont = tuple(1 if g.degree in expected_degrees else 0 for g in G.generators)
    lam = _proportionality(fc, G.basis_element(mont))
    name = "dual-class-closed-form"
    if lam is None or lam == 0:
        return CheckResult(name, False,
                           f"expected multiple of {G.monomial_string(mont)}, got {fc!r}")
    return CheckResult(name, True,
                       f"{fc!r} = {lam} * {G.monomial_string(mont)}")


def instance_identity_checks(inst, verdict):
    """Family-specific exact identities, reported with their scalars."""
    out = []
    fc = verdict.fundamental_class
    G = inst.dual_G
    if inst.family_id in ("sl-imag-sp", "sl-odd-real"):
        out.append(_sl_closed_form_check(inst, fc))
    elif inst.family_id == "siegel-product":
        g = inst.parameters["g"]
        if len(inst.parameters["parts"]) == 2:
            theta = siegel_theta(inst)
            full = reduce(mul, [G.gen(f"sigma{k}") for k in range(1, g + 1)])
            lam = _proportionality(theta * fc, full)
            ok = lam is not None and lam != 0
            out.append(CheckResult("theta-pairing-identity", ok,
                                   f"theta*class = {lam} * sigma_1..sigma_{g}" if ok
                                   else f"theta*class = {theta * fc!r}"))
    elif inst.family_id == "unitary-product":
        p, q = inst.parameters["p"], inst.parameters["q"]
        zero = (G.gen(f"sigma{p}") * G.gen(f"tau{q}")).is_zero()
        out.append(CheckResult("structural-zero", zero,
                               "sigma_p * tau_q = 0" if zero else "nonzero product"))
        # family_unitary: the shortcut holds exactly when sum q_i = q
        if inst.notes.get("tau_shortcut_holds"):
            shortcut = (True, "restriction of tau_q is the product of the "
                              "factors' top tau classes")
        elif sum(qi for _, qi in inst.parameters["parts"]) < q:
            shortcut = (True, "shortcut identity does not apply (sum q_i < q); "
                              "decided by the general pairing criterion")
        else:
            shortcut = (False, "sum q_i = q, but the restriction of tau_q is not "
                               "the product of the factors' top tau classes")
        out.append(CheckResult("tau-restriction-shortcut", *shortcut))
    elif inst.family_id == "sp-in-ugg":
        g = inst.parameters["g"]
        wedge = reduce(mul, [G.gen(f"tau{k}") for k in range(1, g + 1)], fc)
        top = G.basis_element(G.canonical_top_monomial())
        lam = _proportionality(wedge, top)
        ok = lam is not None and lam != 0
        out.append(CheckResult("top-tau-wedge", ok,
                               f"class * tau_1..tau_{g} = {lam} * top" if ok
                               else "wedge fails to hit the top degree"))
    return out


def instance_property_checks(inst, verdict, seed=42, samples=50):
    """The property suite's per-instance checks, less associativity and with
    fewer samples, on a one-instance stream."""
    return _stream([(inst, verdict)], [
        _duality(), _palindromic(), _commutativity(seed, 10),
        _multiplicativity(seed, samples),
        _gysin_soundness(), _witness_roundtrip(), _scalar_invariance(),
    ])


def instance_checks(inst, verdict, suites, seed=42):
    """Scoped versions of the named suites for a single family instance."""
    out = []
    for name in suites:
        if name == "oracle":
            out.extend(instance_oracle_checks(inst))
        elif name == "paper-identities":
            out.extend(instance_identity_checks(inst, verdict))
        elif name == "properties":
            out.extend(instance_property_checks(inst, verdict, seed=seed))
        else:
            raise ValueError(f"unknown check suite {name!r}")
    return out
