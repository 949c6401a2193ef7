"""Finite-dimensional (super) Hopf algebras as explicit tables.

Covers the exterior Hopf algebra and its dual, bosonization by the parity
group, and integrals.  Dualization pairs tensors of functionals against
tensors of elements slot by slot with no extra sign; under this convention
the exterior pairing induces an isomorphism of super Hopf algebras
L(V*) -> L(V)*, which `dual_iso_check` verifies structure constant by
structure constant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product

from . import linalg
from .core import F1, SuperPoly, blades, cross, odd_positions
from .hopf import HopfPresentation, PresentationError, exterior_hopf
from .hyper import truncated_dual
from .report import AxiomReport
from .table import (
    Vec,
    add_into,
    basis_times,
    certify_associative,
    first_nonassociative,
    first_nonunital,
    image,
    times_basis,
    transpose,
    whole_as_int,
)

TensorVec = dict[tuple[int, int], Fraction]


class FiniteDimHopf:
    """Basis-indexed structure tables of a finite-dimensional Hopf algebra.

    The tensor square multiplies with Koszul signs from ``parity``; an
    ordinary Hopf algebra (e.g. a bosonization) is one with all parities 0.
    """

    def __init__(self, labels: list[str], parity: list[int], unit: Vec,
                 mult: dict[tuple[int, int], Vec], delta: dict[int, TensorVec],
                 counit: list[Fraction], antipode: dict[int, Vec] | None) -> None:
        self.labels = labels
        self.parity = parity
        self.unit = unit
        self.mult = mult
        self.delta = delta
        self.counit = counit
        self.antipode = antipode

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def vec_counit(self, a: Vec) -> Fraction:
        return sum(c * self.counit[i] for i, c in a.items())

    def tensor_mul(self, a: TensorVec, b: TensorVec) -> TensorVec:
        """Product on the tensor square, with Koszul sign."""
        out: TensorVec = {}
        get = self.mult.get
        odd = self.parity
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                left = get((i1, i2))
                right = get((j1, j2))
                if not left or not right:
                    continue
                c = -c1 * c2 if odd[j1] and odd[i2] else c1 * c2
                for li, lc in left.items():
                    lc *= c
                    for ri, rc in right.items():
                        key = (li, ri)
                        x = lc * rc
                        s = out.get(key)
                        s = x if s is None else s + x
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
        return out


def check_finite_hopf_axioms(hopf: FiniteDimHopf) -> AxiomReport:
    """Table check of all Hopf axioms (signs per ``hopf.parity``).

    Associativity, coassociativity and the multiplicativity of the coproduct
    and of the counit are certified from the G that ``certify_associative``
    picks, by the lemma of ``superalg.table`` and its corollaries for
    coassociativity and counit multiplicativity, proved in that module's
    docstring; where a certificate does not apply or fails, every triple,
    element or pair is compared.  Either way each witness is the first
    failing case of the dense scan.  The checks assume a graded table: the
    Lambda(1) table with v1 v1 = 3 v1 passes all seven.
    """
    report = AxiomReport()
    dim = hopf.dimension
    labels = hopf.labels
    parity = hopf.parity
    mult, delta, counit = hopf.mult, hopf.delta, hopf.counit

    bad = first_nonunital(mult, dim, hopf.unit)
    report.add("unit", bad is None, "" if bad is None else f"unit law fails at {labels[bad]}")

    one = next(iter(hopf.unit), None)
    gens = certify_associative(mult, dim, hopf.unit)
    certified = gens is not None
    triple = None if certified else first_nonassociative(mult, dim)
    names = ", ".join(labels[t] for t in triple or ())
    report.add("associativity", triple is None, f"associativity fails at ({names})" if triple else "")

    def counit_fails(i: int) -> bool:
        lco: Vec = {}
        rco: Vec = {}
        for (j, k), c in delta.get(i, {}).items():
            add_into(lco, {k: c}, counit[j])
            add_into(rco, {j: c}, counit[k])
        return lco != {i: F1} or rco != {i: F1}

    report.first("counit", (
        f"counit law fails at {labels[i]}" for i in range(dim) if counit_fails(i)
    ))

    def coassociativity_fails(i: int) -> bool:
        left: dict[tuple[int, int, int], Fraction] = {}
        right: dict[tuple[int, int, int], Fraction] = {}
        for (j, k), c in delta.get(i, {}).items():
            add_into(left, {(a, b, k): c2 for (a, b), c2 in delta.get(j, {}).items()}, c)
            add_into(right, {(j, a, b): c2 for (a, b), c2 in delta.get(k, {}).items()}, c)
        return left != right

    def multiplicativity_fails(i: int, j: int) -> bool:
        return image(delta, mult.get((i, j), {})) != hopf.tensor_mul(delta.get(i, {}), delta.get(j, {}))

    def counit_multiplicativity_fails(i: int, j: int) -> bool:
        return hopf.vec_counit(mult.get((i, j), {})) != counit[i] * counit[j]

    # the pairs (g, b) with g in G or g = 1 decide multiplicativity once the
    # product is associative and respects parity (lemma of superalg.table);
    # then, for an even Delta, the elements {1} and G decide coassociativity,
    # and once counit(1) = 1 the pairs (g, b) with g in G decide the counit
    multiplicative = certified and all(
        parity[k] == parity[i] ^ parity[j] for (i, j), cell in mult.items() for k in cell
    ) and not any(multiplicativity_fails(i, j) for i in (one, *gens) for j in range(dim))
    coassociative = multiplicative and all(
        parity[a] ^ parity[b] == parity[i] for i, terms in delta.items() for a, b in terms
    ) and not any(coassociativity_fails(i) for i in (one, *gens))
    counit_one = hopf.vec_counit(hopf.unit) == 1
    counit_multiplicative = certified and counit_one and not any(
        counit_multiplicativity_fails(g, j) for g in gens for j in range(dim)
    )

    report.first("coassociativity", () if coassociative else (
        f"coassociativity fails at {labels[i]}" for i in range(dim) if coassociativity_fails(i)
    ))
    report.first("coproduct-multiplicative", () if multiplicative else (
        f"coproduct is not an algebra map at ({labels[i]}, {labels[j]})"
        for i, j in product(range(dim), repeat=2) if multiplicativity_fails(i, j)
    ))
    # counit(1) != 1 is reported before any pair
    report.first("counit-multiplicative", () if counit_multiplicative else chain(
        [] if counit_one else ["counit(1) != 1"],
        (f"counit is not an algebra map at ({labels[i]}, {labels[j]})"
         for i, j in product(range(dim), repeat=2) if counit_multiplicativity_fails(i, j)),
    ))

    if hopf.antipode is None:
        report.add("antipode", False, "no antipode table")
        return report
    antipode = hopf.antipode

    def antipode_fails(i: int) -> bool:
        target: Vec = {}
        add_into(target, hopf.unit, counit[i])
        conv_l: Vec = {}
        conv_r: Vec = {}
        for (j, k), c in delta.get(i, {}).items():
            add_into(conv_l, times_basis(mult, antipode[j], k), c)
            add_into(conv_r, basis_times(mult, j, antipode[k]), c)
        return conv_l != target or conv_r != target

    report.first("antipode", (
        f"antipode identity fails at {labels[i]}" for i in range(dim) if antipode_fails(i)
    ))
    return report


# --- exterior Hopf algebra as tables ------------------------------------------


def exterior_finite(n: int, label_prefix: str = "v") -> FiniteDimHopf:
    """The 2^n-dimensional exterior Hopf algebra by blade combinatorics (+-1, as int)."""
    masks = blades(n)
    index = {s: i for i, s in enumerate(masks)}
    labels = ["".join(f"{label_prefix}{i + 1}" for i in odd_positions(s)) or "1" for s in masks]
    parity = [s.bit_count() & 1 for s in masks]
    unit = {index[0]: 1}
    mult: dict[tuple[int, int], Vec] = {}
    for i, a in enumerate(masks):
        x = cross(a)
        for j, b in enumerate(masks):
            if not a & b:
                mult[(i, j)] = {index[a | b]: -1 if (b & x).bit_count() & 1 else 1}
    # Λ(V) is self-dual: the unshuffle coproduct is the transposed product
    delta = transpose(mult, range(len(masks)))
    counit = [0 if s else 1 for s in masks]
    # S extends as an algebra morphism over a super-commutative algebra, so
    # S(v_I) = (-1)^{|I|} v_I
    antipode = {i: {i: -1 if p else 1} for i, p in enumerate(parity)}
    return FiniteDimHopf(
        labels=labels, parity=parity, unit=unit, mult=mult, delta=delta,
        counit=counit, antipode=antipode,
    )


def finite_from_presentation(pres: HopfPresentation) -> FiniteDimHopf:
    """Tables of a presentation whose generators are all odd (hence 2^n-dim).

    The truncated dual of order (number of odd generators) + 1 has every
    blade in its basis, so its coproduct and product transpose to the blade
    product and coproduct.
    """
    if pres.gens.evens:
        raise PresentationError("only purely odd presentations are finite-dimensional")
    gens = pres.gens
    dual = truncated_dual(pres, len(gens.odds) + 1)
    antipode = None
    if pres.has_symbolic_antipode:
        index = {m: i for i, m in enumerate(dual.basis)}
        images = (pres.antipode_of(SuperPoly.monomial(gens, mono)) for mono in dual.basis)
        antipode = {i: whole_as_int({index[m]: c for m, c in image.terms.items()})
                    for i, image in enumerate(images)}
    return FiniteDimHopf(
        labels=["".join(gens.odds[i] for i in odd_positions(m.odds)) or "1" for m in dual.basis],
        parity=dual.parity, unit={0: 1},
        mult=transpose(dual.coproduct),
        delta=transpose(dual.product, range(dual.dimension)),
        counit=[pres.counit_monomial(m) for m in dual.basis],
        antipode=antipode,
    )


# --- exterior duality ----------------------------------------------------------


def dual_hopf(hopf: FiniteDimHopf) -> FiniteDimHopf:
    """The dual Hopf algebra on the dual basis (slotwise pairing, no sign)."""
    dim = range(hopf.dimension)
    antipode = None if hopf.antipode is None else transpose(hopf.antipode, dim)
    return FiniteDimHopf(
        labels=[f"{lbl}*" for lbl in hopf.labels],
        parity=list(hopf.parity),
        unit={i: c for i, c in enumerate(hopf.counit) if c},
        mult=transpose(hopf.delta), delta=transpose(hopf.mult, dim),
        counit=[hopf.unit.get(i, 0) for i in dim], antipode=antipode,
    )


def dual_iso_check(n: int, primal: FiniteDimHopf | None = None) -> AxiomReport:
    """The report of L(V*) = primal* as super Hopf algebras via the exterior pairing.

    ``primal`` defaults to L(V) built from its presentation, independently of
    the blade tables of L(V*); any other table on the same 2^n blades is checked as given.
    The pairing-induced map sends f_I to (v_I)*, so it is bijective by
    construction and is not reported as a check.  It must be an algebra
    morphism onto the convolution-dual algebra and must intertwine
    coproducts and antipodes; the dual itself must pass all super Hopf
    axioms.  Units and counits are unique, so they are not compared: once the
    products (coproducts) agree, a wrong dual unit (counit) fails its axiom.
    """
    report = AxiomReport()
    if primal is None:
        primal = finite_from_presentation(exterior_hopf(n))
    covector = exterior_finite(n, label_prefix="f")
    dual = dual_hopf(primal)
    dim = primal.dimension

    # phi(f_I) = sum_J <f_I, v_J> (v_J)*; on normal blades with dual bases the
    # determinant <f_I, v_J> is 1 when the supports agree and 0 otherwise, so
    # phi is the identity on blades(n) indices and bijective by construction
    # (a check of that could not fail).  Both tables list the blades in that
    # order, so each morphism check compares table entries index for index.
    report.first("algebra-morphism", (
        f"products differ at ({covector.labels[i]}, {covector.labels[j]})"
        for i, j in product(range(dim), repeat=2)
        if covector.mult.get((i, j), {}) != dual.mult.get((i, j), {})
    ))
    report.first("coalgebra-morphism", (
        f"coproducts differ at {covector.labels[i]}"
        for i in range(dim) if covector.delta[i] != dual.delta.get(i, {})
    ))

    ok = dual.antipode is not None and all(
        covector.antipode[i] == dual.antipode.get(i, {}) for i in range(dim)
    )
    report.add("antipode-preserved", ok, "" if dual.antipode is not None else "no antipode table")

    # the first failing axiom with its own witness, so the case can be replayed
    report.first("dual-satisfies-super-hopf-axioms", (
        f"{c['name']}: {c['witness']}" for c in check_finite_hopf_axioms(dual).failures()
    ))
    return report


# --- bosonization ---------------------------------------------------------------


def bosonize(hopf: FiniteDimHopf) -> FiniteDimHopf:
    """Smash product and coproduct with the parity group: an ordinary Hopf algebra.

    Underlying space kZ2 (x) A with basis g^s (x) e_i; the group element acts
    by the parity automorphism and the coproduct inserts the parity of the
    first coproduct leg:  D(g^s (x) c) = sum (g^s (x) c1) (x) (g^{s+|c1|} (x) c2).

    The antipode is read off S_A (Radford; Majid).  S(1 (x) a) =
    (-1)^{|a|} g^{|a|} (x) S_A(a), since then sum S(1 (x) a1)(g^{|a1|} (x) a2)
    = 1 (x) sum S_A(a1) a2 = eps(a).  S is anti-multiplicative and S(g) = g,
    so S(g^s (x) a) = S(1 (x) a)(g^s (x) 1); as S_A preserves parity,
    S(g^s (x) e_i) = (-1)^{p_i (s+1)} g^{s+p_i} (x) S_A(e_i).  Without an
    antipode table for A the bosonization has none either.
    """
    dim = hopf.dimension

    def idx(s: int, i: int) -> int:
        return s * dim + i

    labels = hopf.labels + ["g" if lbl == "1" else f"g.{lbl}" for lbl in hopf.labels]
    unit = {idx(0, i): c for i, c in hopf.unit.items()}
    mult: dict[tuple[int, int], Vec] = {}
    for (i, j), cell in hopf.mult.items():
        for s in (0, 1):
            for t in (0, 1):
                # (g^s x a)(g^t x b) = (-1)^{t|a|} g^{s+t} x ab
                sign = -1 if (t and hopf.parity[i]) else 1
                mult[(idx(s, i), idx(t, j))] = {idx((s + t) % 2, k): sign * c for k, c in cell.items()}
    delta: dict[int, TensorVec] = {}
    for s in (0, 1):
        for i in range(dim):
            delta[idx(s, i)] = {
                (idx(s, j), idx((s + hopf.parity[j]) % 2, k)): c
                for (j, k), c in hopf.delta.get(i, {}).items() if c
            }
    antipode = None
    if hopf.antipode is not None:
        antipode = {
            idx(s, i): {idx((s + p) % 2, k): -c if p and not s else c
                        for k, c in hopf.antipode.get(i, {}).items()}
            for s in (0, 1) for i, p in enumerate(hopf.parity)
        }
    return FiniteDimHopf(
        labels=labels, parity=[0] * 2 * dim, unit=unit, mult=mult, delta=delta,
        counit=hopf.counit * 2, antipode=antipode,
    )


# --- integrals -------------------------------------------------------------------


class IntegralSpace:
    """Left integrals of a finite-dimensional Hopf algebra (dimension <= 1)."""

    def __init__(self, basis: list[Vec], parity: int | None, right_basis: list[Vec]) -> None:
        self.basis = basis
        self.parity = parity
        self.right_basis = right_basis

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _integral_system(hopf: FiniteDimHopf, side: str) -> list[Vec]:
    """Sparse rows in the unknowns I(e_i): the e_r coefficients of
    (id (x) I)D(a) - I(a) 1, or of (I (x) id)D(a) - I(a) 1 on the right."""
    rows = []
    for a in range(hopf.dimension):
        equations: dict[int, Vec] = {}
        for (j, k), c in hopf.delta.get(a, {}).items():
            r, x = (j, k) if side == "left" else (k, j)
            add_into(equations.setdefault(r, {}), {x: c})
        for r, u in hopf.unit.items():
            add_into(equations.setdefault(r, {}), {a: u}, -1)
        rows.extend(equations.values())
    return rows


def integral_space(hopf: FiniteDimHopf) -> IntegralSpace:
    """Solve (id (x) I)D(a) = I(a) 1 exactly; also return the right integrals.

    The right integrals are recomputed from the mirrored system, which lets
    callers confirm that composing with the antipode maps left to right.
    Each basis functional is scaled to lead with 1.
    """
    dim = hopf.dimension

    def normalised(side: str) -> list[Vec]:
        basis = []
        for vec in linalg.nullspace(_integral_system(hopf, side), dim):
            lead = vec[min(vec)]
            basis.append({i: vec[i] / lead for i in sorted(vec)})
        return basis

    left = normalised("left")
    parity = None
    if len(left) == 1:
        parities = {hopf.parity[i] for i in left[0]}
        parity = parities.pop() if len(parities) == 1 else None
    return IntegralSpace(basis=left, parity=parity, right_basis=normalised("right"))


def compose_with_antipode(hopf: FiniteDimHopf, functional: Vec) -> Vec:
    """The functional a -> functional(S(a))."""
    if hopf.antipode is None:
        raise PresentationError("no antipode table")
    return image(transpose(hopf.antipode), functional)


def is_right_integral(hopf: FiniteDimHopf, functional: Vec) -> bool:
    get = functional.get
    return not any(
        sum(c * get(k, 0) for k, c in row.items()) for row in _integral_system(hopf, "right")
    )
