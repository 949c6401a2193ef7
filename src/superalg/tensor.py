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
    F0,
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

TensorKey = tuple[SuperMonomial, ...]


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
        gens = tuple(p.gens for p in factors)
        terms: dict[TensorKey, Fraction] = {}
        keys: list[tuple[TensorKey, Fraction]] = [((), F1)]
        for p in factors:
            keys = [
                (key + (m,), c * pc)
                for key, c in keys
                for m, pc in p.terms.items()
            ]
        for key, c in keys:
            terms[key] = terms.get(key, F0) + c
        return cls(gens, terms)

    def _check(self, other: TensorPoly) -> None:
        if self.gens != other.gens:
            raise GeneratorSetMismatch("tensor slot algebras differ")

    def _unit_key(self) -> TensorKey:
        return tuple(one_monomial(g) for g in self.gens)

    @staticmethod
    def _key_parity(key: TensorKey) -> int:
        return sum(m.parity for m in key) & 1

    def _sort_key(self):
        keys = [monomial_sort_key(g) for g in self.gens]
        return lambda key: tuple(k(m) for k, m in zip(keys, key))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        k = len(self.gens)
        terms: dict[TensorKey, Fraction] = {}
        for key1, c1 in self.terms.items():
            right_par = [m.parity for m in key1]
            # suffix_odd[i] = number of odd factors of key1 strictly right of slot i
            suffix = [0] * (k + 1)
            for i in range(k - 1, -1, -1):
                suffix[i] = suffix[i + 1] + right_par[i]
            for key2, c2 in other.terms.items():
                sign = 1
                crossings = 0
                for i in range(k):
                    if key2[i].parity:
                        crossings += suffix[i + 1]
                if crossings & 1:
                    sign = -sign
                monos = []
                for m1, m2 in zip(key1, key2):
                    prod = mul_monomials(m1, m2)
                    if prod is None:
                        monos = None
                        break
                    s, mono = prod
                    sign *= s
                    monos.append(mono)
                if monos is None:
                    continue
                key = tuple(monos)
                c = c1 * c2 if sign > 0 else -c1 * c2
                s2 = terms.get(key, F0) + c
                if s2:
                    terms[key] = s2
                else:
                    terms.pop(key, None)
        return self._new(terms)

    def flip(self) -> TensorPoly:
        """The super symmetry ``a⊗b -> (-1)^{|a||b|} b⊗a`` (two slots)."""
        if len(self.gens) != 2:
            raise ValueError("flip is defined on two-slot tensors")
        gens = (self.gens[1], self.gens[0])
        terms: dict[TensorKey, Fraction] = {}
        for (m1, m2), c in self.terms.items():
            if m1.parity and m2.parity:
                c = -c
            key = (m2, m1)
            terms[key] = terms.get(key, F0) + c
        return TensorPoly(gens, terms)

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
            for mid, ic in items:
                nk = key[:slot] + tuple(mid) + key[slot + 1 :]
                s = terms.get(nk, F0) + c * ic
                if s:
                    terms[nk] = s
                else:
                    terms.pop(nk, None)
        return TensorPoly(gens, terms)

    def contract_slot(self, slot: int, functional: Callable[[SuperMonomial], Fraction]) -> TensorPoly:
        """Apply a scalar-valued functional (e.g. a counit) to one slot."""
        gens = self.gens[:slot] + self.gens[slot + 1 :]
        terms: dict[TensorKey, Fraction] = {}
        for key, c in self.terms.items():
            v = functional(key[slot])
            if not v:
                continue
            nk = key[:slot] + key[slot + 1 :]
            s = terms.get(nk, F0) + c * v
            if s:
                terms[nk] = s
            else:
                terms.pop(nk, None)
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
            if mono is None:
                continue
            cc = c if sign > 0 else -c
            s2 = out.get(mono, F0) + cc
            if s2:
                out[mono] = s2
            else:
                out.pop(mono, None)
        return SuperPoly(target, out)

    def to_single(self) -> SuperPoly:
        """View a one-slot tensor as a plain polynomial."""
        if len(self.gens) != 1:
            raise ValueError("not a one-slot tensor")
        return SuperPoly(self.gens[0], {k[0]: c for k, c in self.terms.items()})

    def __str__(self) -> str:
        from .parsing import format_tensor

        return format_tensor(self)


def tensor_mul(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """Product in the super tensor-product algebra (alias of ``*``)."""
    return left * right
