"""Super Hopf algebra presentations and symbolic axiom checking.

A presentation lists generators with parities and the generator images of
the structure maps; because the underlying algebra is free super-commutative,
every structure map extends uniquely as a super-algebra morphism (the
antipode included, thanks to super-commutativity).  GL(m|n) is presented in
identity-shifted coordinates so that all coproduct and counit data stays
polynomial; its antipode is marked pointwise-only and verified on Grassmann
points.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    F0,
    F1,
    ODD,
    GeneratorSet,
    SuperMonomial,
    SuperPoly,
    blades,
    evaluate_hom,
)
from .report import AxiomReport
from .tensor import TensorPoly


class PresentationError(ValueError):
    """Inconsistent structure data for a Hopf presentation."""


class HopfPresentation:
    """Generators with parities plus generator images of the structure maps.

    ``antipode`` may be None, marking the antipode as pointwise-only (used
    for GL(m|n), whose antipode needs inverses that do not live in the
    polynomial coordinate ring).
    """

    def __init__(
        self,
        gens: GeneratorSet,
        delta: dict[str, TensorPoly],
        counit: dict[str, Fraction],
        antipode: dict[str, SuperPoly] | None,
        name: str = "",
    ):
        self.gens = gens
        self.delta = dict(delta)
        self.counit = {k: Fraction(v) for k, v in counit.items()}
        self.antipode = dict(antipode) if antipode is not None else None
        self.name = name
        self._validate()

    def _validate(self) -> None:
        for name in self.gens.names:
            if name not in self.delta:
                raise PresentationError(f"missing coproduct image for {name}")
            if name not in self.counit:
                raise PresentationError(f"missing counit image for {name}")
            if self.antipode is not None and name not in self.antipode:
                raise PresentationError(f"missing antipode image for {name}")
        for name, image in self.delta.items():
            if image.gens != (self.gens, self.gens):
                raise PresentationError(f"coproduct image of {name} lives in the wrong tensor square")
            expected = self.gens.parity(name)
            for key in image.terms:
                if (key[0].parity + key[1].parity) & 1 != expected:
                    raise PresentationError(f"coproduct image of {name} is parity-inconsistent")
        for name, value in self.counit.items():
            if self.gens.parity(name) == ODD and value != 0:
                raise PresentationError(f"counit of odd generator {name} must vanish")
        if self.antipode is not None:
            for name, image in self.antipode.items():
                expected = "odd" if self.gens.parity(name) == ODD else "even"
                if not image.is_zero() and image.parity_of() != expected:
                    raise PresentationError(f"antipode image of {name} has wrong parity")

    @property
    def has_symbolic_antipode(self) -> bool:
        return self.antipode is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HopfPresentation)
            and self.gens == other.gens
            and self.delta == other.delta
            and self.counit == other.counit
            and self.antipode == other.antipode
        )

    # --- morphism extensions -------------------------------------------------

    def delta_monomial(self, mono: SuperMonomial) -> TensorPoly:
        """Coproduct of a normal monomial, extended multiplicatively."""
        return evaluate_hom(
            SuperPoly.monomial(self.gens, mono), self.delta,
            TensorPoly.unit((self.gens, self.gens)),
        )

    def counit_monomial(self, mono: SuperMonomial) -> Fraction:
        if mono.odds:
            return F0
        value = F1
        for pos, exp in enumerate(mono.evens):
            if exp:
                base = self.counit[self.gens.evens[pos]]
                if not base:
                    return F0
                value *= base ** exp
        return value

    def antipode_of(self, poly: SuperPoly) -> SuperPoly:
        if self.antipode is None:
            raise PresentationError("antipode is pointwise-only for this presentation")
        return evaluate_hom(poly, self.antipode, SuperPoly.one(self.gens))

    def generator_poly(self, name: str) -> SuperPoly:
        return SuperPoly.generator(self.gens, name)

    def __repr__(self):
        return f"HopfPresentation({self.name or self.gens!r})"


# --- constructions -----------------------------------------------------------


def primitive_presentation(evens: list[str], odds: list[str], name: str = "") -> HopfPresentation:
    """Free super-commutative Hopf algebra with all generators primitive."""
    gens = GeneratorSet(evens, odds)
    delta = {}
    counit = {}
    antipode = {}
    for g in gens.names:
        gp = SuperPoly.generator(gens, g)
        unit = SuperPoly.one(gens)
        delta[g] = TensorPoly.of(gp, unit) + TensorPoly.of(unit, gp)
        counit[g] = F0
        antipode[g] = -gp
    return HopfPresentation(gens, delta, counit, antipode, name=name)


def exterior_hopf(n: int) -> HopfPresentation:
    """The exterior Hopf algebra on n odd primitive generators v1..vn."""
    if n < 0:
        raise ValueError("need n >= 0")
    return primitive_presentation([], [f"v{i}" for i in range(1, n + 1)], name=f"exterior({n})")


def additive_presentation(num_even: int, num_odd: int) -> HopfPresentation:
    """Coordinate Hopf algebra of the additive supergroup G_a^{even|odd}."""
    return primitive_presentation(
        [f"t{i}" for i in range(1, num_even + 1)],
        [f"tau{i}" for i in range(1, num_odd + 1)],
        name=f"additive({num_even}|{num_odd})",
    )


def glmn_entry_name(m: int, n: int, a: int, b: int) -> str:
    """Name of the (identity-shifted) matrix entry at 1-based position (a, b)."""
    if a <= m and b <= m:
        return f"x{a}{b}"
    if a <= m < b:
        return f"p{a}{b - m}"
    if a > m >= b:
        return f"q{a - m}{b}"
    return f"y{a - m}{b - m}"


def glmn_presentation(m: int, n: int) -> HopfPresentation:
    """O(GL(m|n)) in identity-shifted coordinates.

    Generators are the shifted matrix entries (vanishing at the counit); the
    coproduct is the matrix coproduct rewritten in shifted form,
    D(g_ab) = g_ab @ 1 + 1 @ g_ab + sum_c g_ac @ g_cb.  The antipode is
    pointwise-only.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    size = m + n
    evens = [f"x{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
    evens += [f"y{k}{l}" for k in range(1, n + 1) for l in range(1, n + 1)]
    odds = [f"p{i}{l}" for i in range(1, m + 1) for l in range(1, n + 1)]
    odds += [f"q{k}{j}" for k in range(1, n + 1) for j in range(1, m + 1)]
    gens = GeneratorSet(evens, odds)
    unit = SuperPoly.one(gens)
    delta = {}
    counit = {}
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            name = glmn_entry_name(m, n, a, b)
            gp = SuperPoly.generator(gens, name)
            image = TensorPoly.of(gp, unit) + TensorPoly.of(unit, gp)
            for c in range(1, size + 1):
                left = SuperPoly.generator(gens, glmn_entry_name(m, n, a, c))
                right = SuperPoly.generator(gens, glmn_entry_name(m, n, c, b))
                image = image + TensorPoly.of(left, right)
            delta[name] = image
            counit[name] = F0
    return HopfPresentation(gens, delta, counit, antipode=None, name=f"gl({m}|{n})")


def even_quotient(pres: HopfPresentation) -> HopfPresentation:
    """Quotient by the ideal generated by the odd part: all odd generators -> 0."""
    gens = GeneratorSet(pres.gens.evens, ())

    # a monomial without odd factors is the same key over the even generators,
    # so the quotient map drops the terms with odd factors and keeps the rest
    def remap_poly(poly: SuperPoly) -> SuperPoly:
        return SuperPoly(gens, {m: c for m, c in poly.terms.items() if not m.odds})

    def remap_tensor(tensor: TensorPoly) -> TensorPoly:
        return TensorPoly((gens, gens), {
            (m1, m2): c for (m1, m2), c in tensor.terms.items() if not (m1.odds or m2.odds)
        })

    delta = {g: remap_tensor(pres.delta[g]) for g in gens.names}
    counit = {g: pres.counit[g] for g in gens.names}
    antipode = None
    if pres.antipode is not None:
        antipode = {g: remap_poly(pres.antipode[g]) for g in gens.names}
    return HopfPresentation(
        gens, delta, counit, antipode,
        name=f"{pres.name}_ev" if pres.name else "even quotient",
    )


# --- axiom checking ----------------------------------------------------------


# the map applied in tensor slot 0 and in slot 1, as named in check names and witnesses
_SIDES = (("left", "{}@id"), ("right", "id@{}"))


def check_hopf_axioms(pres: HopfPresentation, sampler=None, points: int = 0) -> AxiomReport:
    """Verify coassociativity, the counit laws and the antipode identity.

    Structure maps extend multiplicatively, so checking on generators checks
    the whole algebra.  The antipode identity is checked symbolically when
    antipode images exist; otherwise (GL(m|n)) it is checked pointwise on
    sampled Grassmann points, where it reads: the matrix assembled from the
    antipode blocks is the group inverse (``SuperMatrix.antipode_failure``;
    the sampler's points are used only through their methods).
    """
    report = AxiomReport()
    gens = pres.gens
    for g in gens.names:
        image = pres.delta[g]
        left = image.expand_slot(0, lambda m: pres.delta_monomial(m), (gens, gens))
        right = image.expand_slot(1, lambda m: pres.delta_monomial(m), (gens, gens))
        ok = left == right
        report.add(f"coassociativity[{g}]", ok, "" if ok else f"(D@id)D - (id@D)D = {left - right}")

        gp = pres.generator_poly(g)
        for slot, (side, maps) in enumerate(_SIDES):
            counit = image.contract_slot(slot, pres.counit_monomial).to_single()
            report.add(f"counit-{side}[{g}]", counit == gp,
                       "" if counit == gp else f"({maps.format('eps')})D = {counit}")

    if pres.has_symbolic_antipode:
        def antipode(m: SuperMonomial) -> SuperPoly:
            return pres.antipode_of(SuperPoly.monomial(gens, m))

        for g in gens.names:
            image = pres.delta[g]
            target = SuperPoly.scalar(gens, pres.counit[g])
            for slot, (side, maps) in enumerate(_SIDES):
                conv = image.expand_slot(slot, antipode, (gens,)).multiply_slots()
                report.add(f"antipode-{side}[{g}]", conv == target,
                           "" if conv == target else f"m({maps.format('S')})D = {conv}")
    elif sampler is not None and points > 0:
        samples = (sampler.sample(idx) for idx in range(points))
        report.first(f"antipode-pointwise[{points} points]", (
            f"point #{idx}: {point.to_json()}"
            for idx, point in enumerate(samples) if point.antipode_failure()
        ))
    else:
        report.add("antipode", False, "no symbolic antipode and no point sampler provided")
    return report


# --- the odd cotangent space W^A ----------------------------------------------


class OddCotangent:
    """Basis of the odd cotangent space at the identity."""

    def __init__(self, basis: list[str]) -> None:
        self.basis = basis

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _monomials_up_to(gens: GeneratorSet, bound: int) -> list[SuperMonomial]:
    """The normal monomials of degree <= bound, by odd support, then even exponents."""
    out: list[SuperMonomial] = []
    n_even = len(gens.evens)

    def even_vectors(prefix: list[int], pos: int, remaining: int):
        if pos == n_even:
            yield tuple(prefix)
            return
        for e in range(remaining + 1):
            yield from even_vectors(prefix + [e], pos + 1, remaining - e)

    for support in blades(len(gens.odds)):
        odd_deg = support.bit_count()
        if odd_deg > bound:
            continue
        for vec in even_vectors([], 0, bound - odd_deg):
            out.append(SuperMonomial(vec, support))
    return out


def compute_W(pres: HopfPresentation) -> OddCotangent:
    """Basis of A_1 / A_0^+ A_1: the odd generators.

    Lemma: in a free super-commutative algebra every odd monomial of degree
    >= 2 lies in A_0^+ A_1.  With an even factor x it is x * (m / x); with
    none it has at least three odd factors and is +-(t_a t_b) * rest.  So
    A_0^+ A_1 is the span of the odd monomials of degree >= 2, and the single
    odd generators are a basis of the quotient.
    """
    return OddCotangent(basis=list(pres.gens.odds))
