"""The (G, H) family catalog: rings, restrictions, and decision procedures.

Each constructor packages the compact-dual rings of one embedding family,
the restriction morphism between them, and the ideal whose orthogonal
complement (under the intersection pairing) is the kernel of the
invariant-forms map into locally symmetric cohomology (Franke's criterion).
``decide_nonvanishing`` computes the dual fundamental class and searches
the ideal's spanning products m*g_i for one that pairs nonzero with it;
``decide_ghost`` assembles the boundary-restriction certificate for the
special-linear families from two divisibility tests by named exterior
generators, one product each.

The kernel ideals are catalog data: they summarize Levi-restriction and
Chern-class vanishing arguments that are not re-derived here.  Where an
equivalent algebraic statement exists (the substitution-kernel description
for the Lagrangian rings) it is cross-checked in the check suites.
"""

from collections import namedtuple
from functools import reduce
from itertools import product

from .algebra import (
    DEFAULT_MONOMIAL_CAP,
    pairs_nontrivially_with_ideal,
    poincare_polynomial,
    tensor_product,
)
from .errors import InvalidPresentationError
from .morphisms import (
    apply,
    build_morphism,
    gysin_fundamental_class,
)
from .rings import (
    bind_parameters,
    grassmannian_algebra,
    lagrangian_algebra,
    sp_group_algebra,
    su_algebra,
    su_so_algebra,
)

# Greek prefixes for the factors of product duals, in declaration order.
_FACTOR_PREFIXES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


class FamilyInstance:
    """One embedding H -> G from the catalog, ready for the decision procedures."""

    def __init__(self, family_id, parameters, dual_G, dual_H, restriction,
                 franke_ideal, compact_support_generator=None,
                 levi_restriction=None, levi_franke_generator=None, notes=None):
        self.family_id = family_id
        self.parameters = parameters
        self.dual_G = dual_G
        self.dual_H = dual_H
        self.restriction = restriction
        self.franke_ideal = franke_ideal  # elements of dual_G
        self.compact_support_generator = compact_support_generator  # a generator name in dual_G
        self.levi_restriction = levi_restriction
        self.levi_franke_generator = levi_franke_generator  # a generator name in the Levi dual
        self.notes = {} if notes is None else notes


class GhostCertificate(namedtuple(
        "GhostCertificate",
        "not_compactly_supported levi_restriction_in_levi_kernel is_ghost discrepancy_note",
        defaults=[""])):
    """Boundary-behaviour certificate for the special-linear families.

    ``not_compactly_supported``: the dual class is not divisible by the top
    exterior generator, so it is not in the image of compactly supported
    cohomology.  ``levi_restriction_in_levi_kernel``: its restriction to
    the principal Levi's dual is divisible by that ring's top generator,
    i.e. dies under the Levi's invariant-forms map.  ``is_ghost`` is their
    conjunction with non-vanishing; both booleans re-verify independently
    through the core divisibility primitive ``is_divisible``.
    """

    __slots__ = ()


Verdict = namedtuple("Verdict", "fundamental_class nonvanishing nonvanishing_witness "
                                "ghost betti_G betti_H")


# ------------------------------------------------------------ SL families


def family_sl_imag_sp(n, monomial_cap=DEFAULT_MONOMIAL_CAP):
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
    G = su_algebra(2 * n, monomial_cap)
    H = sp_group_algebra(n, monomial_cap)
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
        levi = su_algebra(2 * n - 1, monomial_cap)
        levi_images = {f"e{d}": levi.gen(f"e{d}") for d in range(3, 4 * n - 2, 2)}
        inst.levi_restriction = build_morphism(G, levi, levi_images)
        inst.levi_franke_generator = f"e{4 * n - 3}"
        inst.notes["discrepancy"] = (
            f"compact-support divisibility is read against the top generator "
            f"e{4 * n - 1}; an e{4 * n - 3} reading would be vacuous, since the "
            f"dual class e5^...^e{4 * n - 3} contains e{4 * n - 3} as a factor.")
    return inst


def family_sl_odd_real(n, monomial_cap=DEFAULT_MONOMIAL_CAP):
    """Odd special linear group over a totally real field inside its
    restriction of scalars: duals SU(2n+1) and SU(2n+1)/SO(2n+1).

    The target ring lives on generators of degree 1 mod 4, so the
    restriction keeps exactly those generators (this is also forced by the
    closed form of the dual class, e3^e7^...^e_{4n-1}).
    """
    if n < 1:
        raise InvalidPresentationError(f"family sl-odd-real needs n >= 1, got {n}")
    G = su_algebra(2 * n + 1, monomial_cap)
    H = su_so_algebra(n, monomial_cap)
    images = {f"e{d}": H.gen(f"e{d}") for d in range(5, 4 * n + 2, 4)}
    restriction = build_morphism(G, H, images)
    top_name = f"e{4 * n + 1}"
    levi = su_algebra(2 * n, monomial_cap)
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


# -------------------------------------------------------- Siegel products


def _validate_parts(parts, total, what):
    if (not isinstance(parts, (list, tuple)) or not parts
            or any(type(a) is not int or a < 1 for a in parts)):
        raise InvalidPresentationError(f"{what}: parts must be positive integers, got {parts}")
    parts = list(parts)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise InvalidPresentationError(f"{what}: parts must be nonincreasing, got {parts}")
    if sum(parts) != total:
        raise InvalidPresentationError(
            f"{what}: parts {parts} do not sum to {total}")
    return parts


def family_siegel(g, parts, monomial_cap=DEFAULT_MONOMIAL_CAP):
    """Product of symplectic groups inside Sp(2g): Lagrangian-Grassmannian duals.

    ``parts`` is a nonincreasing list of positive integers summing to g.
    The restriction sends sigma_k to the degree-k part of the product of
    the factors' total classes.  Two-part instances carry the explicit
    pairing partner theta (see :func:`siegel_theta`); longer partitions are
    decided by the general pairing criterion and flagged exploratory.
    """
    if g < 1:
        raise InvalidPresentationError(f"family siegel needs g >= 1, got {g}")
    parts = _validate_parts(parts, g, "siegel partition")
    G = lagrangian_algebra(g, monomial_cap)
    # factors after the sixth get f7_, f8_, ..., which start no other name
    prefixes = _FACTOR_PREFIXES + tuple(f"f{i}_" for i in range(7, len(parts) + 1))
    H = _product_ring([lagrangian_algebra(gi, monomial_cap, prefix=prefixes[i])
                       for i, gi in enumerate(parts)], monomial_cap)
    classes = [[f"{prefixes[i]}{j}" for j in range(1, gi + 1)]
               for i, gi in enumerate(parts)]
    images = {f"sigma{k}": _composition_image(H, classes, k) for k in range(1, g + 1)}
    restriction = build_morphism(G, H, images)
    inst = FamilyInstance(
        family_id="siegel-product",
        parameters={"g": g, "parts": list(parts)},
        dual_G=G,
        dual_H=H,
        restriction=restriction,
        franke_ideal=[G.gen(f"sigma{g}")],
    )
    if len(parts) > 2:
        inst.notes["exploratory"] = (
            "partitions with more than two parts are decided by the general "
            "pairing criterion; no closed-form pairing partner is attached.")
    return inst


def _product_ring(factors, monomial_cap):
    """The tensor product of the factor rings, left to right."""
    return reduce(lambda a, b: tensor_product(a, b, monomial_cap), factors)


def _composition_image(H, classes, k):
    """Degree-k part of the product of the factors' total classes, where
    ``classes[i]`` names factor i's classes c_1, c_2, ... in order.

    Each composition k = k_1 + k_2 + ... (k_i = 0 allowed, c_0 = 1) gives
    the monomial with exponent 1 on each c_{k_i}, and distinct compositions
    give distinct monomials, so the image is one ``H.element`` call.
    """
    position = {g.name: j for j, g in enumerate(H.generators)}
    index = [[position[name] for name in names] for names in classes]
    mont = [0] * len(H.generators)
    terms = {}

    def rec(i, rem):
        if i == len(index):
            if rem == 0:
                terms[tuple(mont)] = 1
            return
        rec(i + 1, rem)
        for ki in range(1, min(len(index[i]), rem) + 1):
            j = index[i][ki - 1]
            mont[j] = 1
            rec(i + 1, rem - ki)
            mont[j] = 0

    rec(0, k)
    return H.element(terms)


def siegel_theta(inst):
    """The explicit pairing partner for a two-part Siegel instance.

    For parts [a, b] it is (sigma_g sigma_{g-2} ... sigma_{g-2b}) *
    (sigma_1 ... sigma_{a-b-1}); wedging it with the dual class yields a
    nonzero multiple of sigma_1 ... sigma_g.
    """
    if inst.family_id != "siegel-product" or len(inst.parameters["parts"]) != 2:
        raise InvalidPresentationError("theta is defined for two-part Siegel instances")
    a, b = inst.parameters["parts"]
    g = inst.parameters["g"]
    G = inst.dual_G
    theta = G.one()
    for k in range(g, g - 2 * b - 1, -2):
        if k >= 1:
            theta = theta * G.gen(f"sigma{k}")
    for k in range(1, a - b):
        theta = theta * G.gen(f"sigma{k}")
    return theta


# ------------------------------------------------------- unitary families


def _validate_unitary_parts(p, q, parts):
    if (not isinstance(parts, (list, tuple)) or not parts
            or any(not isinstance(pair, (list, tuple)) or len(pair) != 2
                   or any(type(a) is not int or a < 1 for a in pair) for pair in parts)):
        raise InvalidPresentationError(
            f"unitary parts must be pairs of positive integers, got {parts}")
    parts = [tuple(pair) for pair in parts]
    if sum(pi for pi, _ in parts) != p:
        raise InvalidPresentationError(
            f"unitary parts {parts}: sum of p_i must equal p = {p}")
    if sum(qi for _, qi in parts) > q:
        raise InvalidPresentationError(
            f"unitary parts {parts}: sum of q_i must not exceed q = {q}")
    return parts


def family_unitary(p, q, parts, monomial_cap=DEFAULT_MONOMIAL_CAP):
    """Product of lower unitary groups inside U(p,q): Grassmannian duals.

    ``parts`` is a list of (p_i, q_i) with sum p_i = p and sum q_i <= q.
    Generator images are forced by the presentation: sigma_k restricts to
    the degree-k part of the product of the factors' sigma-series, and
    tau_m to the degree-m part of the product of their tau-series (the
    power-series inverse of the sigma image).  When sum q_i = q this makes
    the restriction of tau_q the product of the factors' top tau classes;
    when sum q_i < q that shortcut identity fails (tau_q restricts to 0 --
    a rank q - sum q_i summand contributes trivially) and the general
    pairing criterion does the deciding.  ``notes['tau_shortcut_holds']``
    records which case occurred.
    """
    if not (1 <= p <= q):
        raise InvalidPresentationError(f"family unitary needs q >= p >= 1, got ({p}, {q})")
    parts = _validate_unitary_parts(p, q, parts)
    G = grassmannian_algebra(p, q, monomial_cap)
    suffixes = [""] if len(parts) == 1 else [f"@{i + 1}" for i in range(len(parts))]
    H = _product_ring([grassmannian_algebra(pi, qi, monomial_cap, suffix=s)
                       for (pi, qi), s in zip(parts, suffixes)], monomial_cap)
    sigmas = [[f"sigma{j}{s}" for j in range(1, pi + 1)] for (pi, _), s in zip(parts, suffixes)]
    taus = [[f"tau{j}{s}" for j in range(1, qi + 1)] for (_, qi), s in zip(parts, suffixes)]
    images = {f"sigma{k}": _composition_image(H, sigmas, k) for k in range(1, p + 1)}
    images.update({f"tau{m}": _composition_image(H, taus, m) for m in range(1, q + 1)})
    restriction = build_morphism(G, H, images)
    inst = FamilyInstance(
        family_id="unitary-product",
        parameters={"p": p, "q": q, "parts": [list(t) for t in parts]},
        dual_G=G,
        dual_H=H,
        restriction=restriction,
        franke_ideal=[G.gen(f"sigma{p}"), G.gen(f"tau{q}")],
    )
    sum_qi = sum(qi for _, qi in parts)
    xi_product = H.one()
    for i, (pi, qi) in enumerate(parts):
        xi_product = xi_product * H.gen(f"tau{qi}{suffixes[i]}")
    inst.notes["tau_shortcut_holds"] = bool(
        sum_qi == q and apply(restriction, G.gen(f"tau{q}")) == xi_product)
    if sum_qi < q:
        inst.notes["q_deficit"] = (
            f"sum q_i = {sum_qi} < q = {q}: tau_{q} restricts to zero and the "
            f"product-of-top-tau shortcut does not apply; decided by the "
            f"general pairing criterion.")
    return inst


def family_sp_in_ugg(g, monomial_cap=DEFAULT_MONOMIAL_CAP):
    """Symplectic group inside U(g,g): Gr(g,2g) restricting onto the
    Lagrangian-Grassmannian ring via sigma_k -> sigma_k, tau_k -> (-1)^k sigma_k
    (the two Chern root families collapse to one, with a sign).
    """
    if g < 1:
        raise InvalidPresentationError(f"family sp-in-ugg needs g >= 1, got {g}")
    G = grassmannian_algebra(g, g, monomial_cap)
    H = lagrangian_algebra(g, monomial_cap)
    images = {}
    for k in range(1, g + 1):
        sk = H.gen(f"sigma{k}")
        images[f"sigma{k}"] = sk
        images[f"tau{k}"] = (-1) ** k * sk
    restriction = build_morphism(G, H, images)
    return FamilyInstance(
        family_id="sp-in-ugg",
        parameters={"g": g},
        dual_G=G,
        dual_H=H,
        restriction=restriction,
        franke_ideal=[G.gen(f"sigma{g}"), G.gen(f"tau{g}")],
    )


# A catalog family: its constructor, its rank parameters in order and, for
# product families, the certified decompositions of given ranks (called with
# the ranks and ``full_q``), each of which is a ``parts``.
Family = namedtuple("Family", "build ranks decompositions", defaults=[None])
FAMILIES = {
    "sl-imag-sp": Family(family_sl_imag_sp, ("n",)),
    "sl-odd-real": Family(family_sl_odd_real, ("n",)),
    "siegel-product": Family(family_siegel, ("g",), lambda g, full_q: two_part_partitions(g)),
    # The family needs q >= p, so a sweep skips the smaller q.
    "unitary-product": Family(family_unitary, ("p", "q"), lambda p, q, full_q: (
        unitary_decompositions(p, q, full_q) if q >= p else [])),
    "sp-in-ugg": Family(family_sp_in_ugg, ("g",)),
}
FAMILY_IDS = tuple(FAMILIES)
FAMILY_ALIASES = {"siegel": "siegel-product", "unitary": "unitary-product"}


def canonical_family_id(name):
    """The family id that ``name`` (an id or an alias) stands for."""
    fid = FAMILY_ALIASES.get(name, name)
    if fid not in FAMILIES:
        raise InvalidPresentationError(
            f"unknown family {name!r}; known: {', '.join(FAMILY_IDS)}")
    return fid


def build_family(family_id, parameters, monomial_cap=DEFAULT_MONOMIAL_CAP):
    """One instance of a family (an id or an alias); ``parameters`` must
    name exactly the family's parameters, and every rank must be an ``int``
    (a ``bool`` is refused)."""
    fid = canonical_family_id(family_id)
    family = FAMILIES[fid]
    names = family.ranks if family.decompositions is None else (*family.ranks, "parts")
    values = bind_parameters(f"family {fid}", names, parameters)
    for name, v in zip(family.ranks, values):
        if type(v) is not int:
            raise InvalidPresentationError(f"family {fid}: rank {name} must be an int, got {v!r}")
    return family.build(*values, monomial_cap)


# ------------------------------------------------------------- decisions


def decide_nonvanishing(inst):
    """Compute the dual class and search the kernel ideal for a pairing witness.

    The class survives the invariant-forms map exactly when it pairs
    nontrivially with the ideal; the returned witness re-verifies through
    the core primitives alone.
    """
    fc = gysin_fundamental_class(inst.restriction)
    witness = pairs_nontrivially_with_ideal(fc, inst.franke_ideal)
    return Verdict(
        fundamental_class=fc,
        nonvanishing=witness is not None,
        nonvanishing_witness=witness,
        ghost=decide_ghost(inst, fc, witness is not None),
        betti_G=poincare_polynomial(inst.dual_G),
        betti_H=poincare_polynomial(inst.dual_H),
    )


def _divisible_by_generator(v, name):
    """Whether v = g*w for some w, g the named generator of an exterior ring.

    Multiplication by an odd generator of an exterior algebra is exact
    (its kernel is its image), so v is divisible iff g*v = 0: one product,
    no elimination.  ``is_divisible`` finds a witness and is the
    cross-check.
    """
    alg = v.algebra
    if alg.kind != "exterior":
        raise InvalidPresentationError(
            f"divisibility by a generator needs an exterior ring, got {alg.kind}")
    return (alg.gen(name) * v).is_zero()


def decide_ghost(inst, fundamental_class, nonvanishing):
    """Ghost certificate for families carrying boundary data, else None.

    (a) the dual class is not divisible by the top generator (not in the
    compactly-supported image); (b) its principal-Levi restriction is
    divisible by the Levi ring's top generator (dies under the Levi's
    map); ghost = (a) and (b) and ``nonvanishing``.
    """
    if inst.compact_support_generator is None or inst.levi_restriction is None:
        return None
    not_cs = not _divisible_by_generator(fundamental_class, inst.compact_support_generator)
    levi_image = apply(inst.levi_restriction, fundamental_class)
    in_levi_kernel = _divisible_by_generator(levi_image, inst.levi_franke_generator)
    return GhostCertificate(
        not_compactly_supported=not_cs,
        levi_restriction_in_levi_kernel=in_levi_kernel,
        is_ghost=bool(not_cs and in_levi_kernel and nonvanishing),
        discrepancy_note=inst.notes.get("discrepancy", ""),
    )


# ------------------------------------------------------- sweep enumeration


def two_part_partitions(g):
    """Nonincreasing two-part partitions [a, b] of g, a >= b >= 1."""
    return [[g - b, b] for b in range(g // 2, 0, -1)]


def unitary_decompositions(p, q, full_q=True):
    """Multiset decompositions of (p, q) into parts (p_i, q_i) >= (1, 1).

    With ``full_q`` the parts' q_i sum to exactly q (the certified regime);
    otherwise any total <= q is allowed.  Parts are listed nonincreasing
    lexicographically and the output order is deterministic.
    """
    out = []

    def rec(rp, rq, prev, acc):
        if rp == 0:
            if rq == 0 or not full_q:
                out.append([list(t) for t in acc])
            return
        for pi in range(min(prev[0], rp), 0, -1):
            qi_top = min(rq, prev[1] if pi == prev[0] else q)
            for qi in range(qi_top, 0, -1):
                acc.append((pi, qi))
                rec(rp - pi, rq - qi, (pi, qi), acc)
                acc.pop()

    rec(p, q, (p, q), [])
    return out


def sweep_parameter_list(family_id, ranges):
    """Deterministic instance list for a sweep over family parameters.

    ``ranges`` maps each rank parameter of the family to an inclusive
    (lo, hi) pair; product families get every certified decomposition per
    rank (all nonincreasing two-part partitions for the symplectic
    products, all full-q multiset decompositions for the unitary ones, plus
    deficit ones when ``ranges["full_q"]`` is false).

    >>> sweep_parameter_list("siegel", {"g": (2, 3)})
    [{'g': 2, 'parts': [1, 1]}, {'g': 3, 'parts': [2, 1]}]
    >>> sweep_parameter_list("unitary-product", {"p": (2, 2), "q": (1, 2)})
    [{'p': 2, 'q': 2, 'parts': [[2, 2]]}, {'p': 2, 'q': 2, 'parts': [[1, 1], [1, 1]]}]
    """
    fid = canonical_family_id(family_id)
    family = FAMILIES[fid]
    spans = bind_parameters(f"sweep {fid}", family.ranks,
                            {k: v for k, v in ranges.items() if k != "full_q"})
    out = []
    for ranks in product(*(range(lo, hi + 1) for lo, hi in spans)):
        params = dict(zip(family.ranks, ranks))
        if family.decompositions is None:
            out.append(params)
        else:
            out.extend({**params, "parts": parts} for parts in
                       family.decompositions(*ranks, full_q=ranges.get("full_q", True)))
    return out
