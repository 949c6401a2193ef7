"""Free super-commutative algebras over exact rationals.

Elements are kept in Koszul normal form: even generators carry exponent
vectors, the odd support is an ``int`` bitmask (bit i is ``gens.odds[i]``),
and every reordering sign is materialised into the coefficient.  The one
sign rule of the engine is :func:`cross`: blade products in ``SuperPoly``,
``TensorPoly``, the Grassmann matrix kernel and the exterior tables all
take their Koszul signs from it.  All arithmetic is exact
(`fractions.Fraction`); values are immutable after construction and safe to
share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, TypeVar

Scalar = Fraction

EVEN = 0
ODD = 1

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_MIXED = "mixed"

F0 = Fraction(0)
F1 = Fraction(1)


class GeneratorSetMismatch(ValueError):
    """Raised when two elements of different free algebras are combined."""


class UnknownGenerator(KeyError):
    """Raised for a symbol that does not belong to the generator set."""


class GeneratorSet:
    """Ordered even and odd generator names, fixed for the algebra's lifetime.

    Generator order is part of the identity of the algebra: normal forms,
    printing and serialisation all refer to it.  Every generator has degree
    1, so the degree of a monomial is its word length.
    """

    __slots__ = ("evens", "odds", "_info", "_key", "_one")

    def __init__(self, evens: Iterable[str] = (), odds: Iterable[str] = ()):
        self.evens = tuple(evens)
        self.odds = tuple(odds)
        names = self.evens + self.odds
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self._info: dict[str, tuple[int, int]] = {}
        for i, name in enumerate(self.evens):
            self._info[name] = (EVEN, i)
        for i, name in enumerate(self.odds):
            self._info[name] = (ODD, i)
        self._key = (self.evens, self.odds)
        self._one = SuperMonomial((0,) * len(self.evens), 0)

    def parity(self, name: str) -> int:
        try:
            return self._info[name][0]
        except KeyError:
            raise UnknownGenerator(name) from None

    def position(self, name: str) -> int:
        try:
            return self._info[name][1]
        except KeyError:
            raise UnknownGenerator(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._info

    @property
    def names(self) -> tuple[str, ...]:
        return self.evens + self.odds

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GeneratorSet(evens={list(self.evens)}, odds={list(self.odds)})"


class SuperMonomial(NamedTuple):
    """Normal-form monomial: even exponents plus the odd support as a bitmask."""

    evens: tuple[int, ...]
    odds: int

    @property
    def parity(self) -> int:
        return self.odds.bit_count() & 1

    def degree(self) -> int:
        """The word length: even exponents plus odd factors."""
        return sum(self.evens) + self.odds.bit_count()


def one_monomial(gens: GeneratorSet) -> SuperMonomial:
    return gens._one


def odd_positions(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` in increasing order (the odd factors, left to right)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def blades(n: int) -> list[int]:
    """The 2^n odd supports on n generators, by size and then lexicographically."""
    return sorted(range(1 << n), key=lambda mask: (mask.bit_count(), odd_positions(mask)))


def cross(mask: int) -> int:
    """XOR of (1 << i) - 1 over the bits i of ``mask``.

    blade(m1) * blade(m2) = (-1)^popcount(m2 & cross(m1)) * blade(m1 | m2)
    when m1 & m2 == 0: each factor t_j of m2 moves left past the factors of
    m1 above it, and the XOR keeps the parity of that count per bit j.
    """
    out = 0
    while mask:
        low = mask & -mask
        out ^= low - 1
        mask ^= low
    return out


# Always empty: ``bench/worker.py`` reports its size as ``core.mul_cache.entries``.
_MUL_CACHE: dict = {}


def mul_monomials(m1: SuperMonomial, m2: SuperMonomial) -> tuple[int, SuperMonomial] | None:
    a, b = m1.odds, m2.odds
    if a & b:
        return None
    if any(m1.evens):
        evens = tuple(x + y for x, y in zip(m1.evens, m2.evens)) if any(m2.evens) else m1.evens
    else:
        evens = m2.evens
    return (-1 if (b & cross(a)).bit_count() & 1 else 1, SuperMonomial(evens, a | b))


def monomial_sort_key(m: SuperMonomial):
    return (m.degree(), odd_positions(m.odds), m.evens)


class _TermMap:
    """Arithmetic shared by the exact term-map elements.

    ``gens`` names the generator context and ``terms`` maps keys to nonzero
    exact coefficients; equality is term-map equality and operations return
    new values.  A subclass supplies its constructor, ``_check``, a
    ``__mul__`` that calls ``_product`` with its key product, and three key
    hooks: ``_unit_key``, ``_key_parity`` and ``_sort_key``.
    """

    __slots__ = ("gens", "terms")

    @classmethod
    def zero(cls, gens):
        return cls(gens)

    def _new(self, terms: dict):
        out = object.__new__(type(self))
        out.gens, out.terms = self.gens, terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, F0) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return self._new(terms)

    def _product(self, other, key_product):
        """Sum over term pairs of c1 * c2 * key_product(k1, k2).

        ``key_product`` returns ``(sign, key)``, or None for a zero product.
        """
        terms: dict = {}
        get = terms.get
        other_items = list(other.terms.items())
        for k1, c1 in self.terms.items():
            for k2, c2 in other_items:
                prod = key_product(k1, k2)
                if prod is None:
                    continue
                sign, key = prod
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                s = get(key)
                if s is None:
                    terms[key] = c
                else:
                    s = s + c
                    if s:
                        terms[key] = s
                    else:
                        del terms[key]
        return self._new(terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        c = Fraction(value)
        return self._new({k: c * v for k, v in self.terms.items()} if c else {})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        if not exponent:
            return self._new({self._unit_key(): F1})
        half = self ** (exponent >> 1)  # by squaring: about 2 log2(exponent) products
        return half * half * self if exponent & 1 else half * half

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def parity_of(self) -> str:
        """Return "even", "odd" or "mixed"; the zero element counts as even."""
        parities = {self._key_parity(k) for k in self.terms}
        if parities <= {EVEN}:
            return PARITY_EVEN
        if parities == {ODD}:
            return PARITY_ODD
        return PARITY_MIXED

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: self._sort_key(item[0]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class SuperPoly(_TermMap):
    """Exact-coefficient element of a free super-commutative algebra.

    ``terms`` maps normal-form monomials to nonzero rational coefficients.
    """

    __slots__ = ()

    def __init__(self, gens: GeneratorSet, terms: Mapping[SuperMonomial, Fraction] | None = None):
        self.gens = gens
        self.terms: dict[SuperMonomial, Fraction] = {
            m: c for m, c in (terms or {}).items() if c
        }

    @classmethod
    def one(cls, gens: GeneratorSet) -> SuperPoly:
        return cls(gens, {one_monomial(gens): F1})

    @classmethod
    def scalar(cls, gens: GeneratorSet, value) -> SuperPoly:
        return cls(gens, {one_monomial(gens): Fraction(value)})

    @classmethod
    def generator(cls, gens: GeneratorSet, name: str) -> SuperPoly:
        parity, pos = gens.parity(name), gens.position(name)
        if parity == EVEN:
            exps = [0] * len(gens.evens)
            exps[pos] = 1
            mono = SuperMonomial(tuple(exps), 0)
        else:
            mono = SuperMonomial((0,) * len(gens.evens), 1 << pos)
        return cls(gens, {mono: F1})

    @classmethod
    def monomial(cls, gens: GeneratorSet, mono: SuperMonomial, coeff=F1) -> SuperPoly:
        return cls(gens, {mono: Fraction(coeff)})

    def _check(self, other: SuperPoly) -> None:
        if self.gens is not other.gens and self.gens != other.gens:
            raise GeneratorSetMismatch(f"{self.gens!r} vs {other.gens!r}")

    def _unit_key(self) -> SuperMonomial:
        return one_monomial(self.gens)

    @staticmethod
    def _key_parity(mono: SuperMonomial) -> int:
        return mono.parity

    _sort_key = staticmethod(monomial_sort_key)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return self._product(other, mul_monomials)

    def body(self) -> Fraction:
        """Coefficient of the empty monomial."""
        return self.terms.get(one_monomial(self.gens), F0)

    def soul(self) -> SuperPoly:
        """The element minus its body; nilpotent over a Grassmann algebra."""
        unit = one_monomial(self.gens)
        return SuperPoly(self.gens, {m: c for m, c in self.terms.items() if m != unit})

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)


T = TypeVar("T")


def evaluate_hom(poly: SuperPoly, images: Mapping[str, T], one: T) -> T:
    """Apply the super-algebra morphism sending each generator to its image.

    ``one`` is the unit of the target; images must support ``+`` and ``*`` and
    scalar multiplication by Fraction.  The images' parities are the caller's
    to check (``HopfPresentation`` checks those of its input).
    """
    for name in poly.gens.names:
        if name not in images:
            raise UnknownGenerator(name)
    result = None
    for mono, coeff in poly.terms.items():
        value = coeff * one
        for pos, exp in enumerate(mono.evens):
            if exp:
                img = images[poly.gens.evens[pos]]
                for _ in range(exp):
                    value = value * img
        for pos in odd_positions(mono.odds):
            value = value * images[poly.gens.odds[pos]]
        result = value if result is None else result + value
    if result is None:
        return 0 * one
    return result
