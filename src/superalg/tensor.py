"""Super tensor products of free super-commutative algebras.

A :class:`TensorPoly` is an element of ``A_1 ⊗ ... ⊗ A_k`` with each slot a
free super-commutative algebra.  Multiplication follows the graded rule:
moving a factor of slot ``i`` past a factor of slot ``j > i`` costs the
Koszul sign, so ``(a⊗b)·(c⊗d) = (-1)^{|b||c|} ac⊗bd``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .core import (
    F1,
    GeneratorSet,
    GeneratorSetMismatch,
    SuperMonomial,
    SuperPoly,
    _TermMap,
    monomial_sort_key,
    mul_monomials,
    one_monomial,
)
from .table import add_into

TensorKey = tuple[SuperMonomial, ...]


def _key_product(key1: TensorKey, key2: TensorKey) -> tuple[int, TensorKey] | None:
    """Slotwise product of two keys with its sign, or None if a slot vanishes.

    Besides each slot's own sign, every odd factor of ``key1`` picks up a
    Koszul sign from the odd factors of ``key2`` in earlier slots, which the
    product moves past it.
    """
    sign = 1
    moved = 0  # parity of the odd factors of key2 in the slots so far
    monos = []
    for m1, m2 in zip(key1, key2):
        prod = mul_monomials(m1, m2)
        if prod is None:
            return None
        s, mono = prod
        sign = -sign * s if moved and m1.parity else sign * s
        moved ^= m2.parity
        monos.append(mono)
    return sign, tuple(monos)


class TensorPoly(_TermMap):
    """Element of a k-fold super tensor product, in slotwise normal form."""

    __slots__ = ()

    def __init__(
        self,
        gens: Sequence[GeneratorSet],
        terms: Mapping[TensorKey, Fraction] | None = None,
    ):
        self.gens = tuple(gens)
        self.terms: dict[TensorKey, Fraction] = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def unit(cls, gens: Sequence[GeneratorSet]) -> TensorPoly:
        return cls(gens) ** 0

    @classmethod
    def of(cls, *factors: SuperPoly) -> TensorPoly:
        """The elementary tensor ``p_1 ⊗ ... ⊗ p_k`` (multilinear expansion)."""
        terms: dict[TensorKey, Fraction] = {(): F1}
        for p in factors:  # distinct (key, m) give distinct keys: nothing to accumulate
            terms = {key + (m,): c * pc for key, c in terms.items() for m, pc in p.terms.items()}
        return cls(tuple(p.gens for p in factors), terms)

    def _check(self, other: TensorPoly) -> None:
        if self.gens != other.gens:
            raise GeneratorSetMismatch("tensor slot algebras differ")

    def _unit_key(self) -> TensorKey:
        return tuple(one_monomial(g) for g in self.gens)

    @staticmethod
    def _key_parity(key: TensorKey) -> int:
        return sum(m.parity for m in key) & 1

    @staticmethod
    def _sort_key(key: TensorKey) -> tuple:
        return tuple(map(monomial_sort_key, key))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return self._product(other, _key_product)

    def expand_slot(
        self,
        slot: int,
        expander: Callable[[SuperMonomial], TensorPoly | SuperPoly],
        new_gens: Sequence[GeneratorSet],
    ) -> TensorPoly:
        """Replace slot ``slot`` by the (parity-preserving) image of its monomial.

        ``expander`` must be an even linear map given on monomials, e.g. the
        morphism extension of a coproduct; no Koszul sign arises because the
        image has the same parity as the argument.
        """
        gens = self.gens[:slot] + tuple(new_gens) + self.gens[slot + 1 :]
        terms: dict[TensorKey, Fraction] = {}
        for key, c in self.terms.items():
            image = expander(key[slot])
            if isinstance(image, SuperPoly):
                items = [((m,), ic) for m, ic in image.terms.items()]
            else:
                items = list(image.terms.items())
            add_into(terms, {key[:slot] + tuple(mid) + key[slot + 1 :]: ic for mid, ic in items}, c)
        return TensorPoly(gens, terms)

    def contract_slot(self, slot: int, functional: Callable[[SuperMonomial], Fraction]) -> TensorPoly:
        """Apply a scalar-valued functional (e.g. a counit) to one slot."""
        gens = self.gens[:slot] + self.gens[slot + 1 :]
        terms: dict[TensorKey, Fraction] = {}
        for key, c in self.terms.items():
            add_into(terms, {key[:slot] + key[slot + 1 :]: functional(key[slot])}, c)
        return TensorPoly(gens, terms)

    def multiply_slots(self) -> SuperPoly:
        """Multiply all slots together inside one algebra (the map m: A⊗A -> A)."""
        target = self.gens[0]
        for g in self.gens[1:]:
            if g != target:
                raise GeneratorSetMismatch("cannot multiply slots over different algebras")
        out: dict[SuperMonomial, Fraction] = {}
        for key, c in self.terms.items():
            sign = 1
            mono = key[0]
            for m in key[1:]:
                prod = mul_monomials(mono, m)
                if prod is None:
                    mono = None
                    break
                s, mono = prod
                sign *= s
            if mono is not None:
                add_into(out, {mono: c}, sign)
        return SuperPoly(target, out)

    def to_single(self) -> SuperPoly:
        """View a one-slot tensor as a plain polynomial."""
        if len(self.gens) != 1:
            raise ValueError("not a one-slot tensor")
        return SuperPoly(self.gens[0], {k[0]: c for k, c in self.terms.items()})

    def __str__(self) -> str:
        from .parsing import format_tensor

        return format_tensor(self)
