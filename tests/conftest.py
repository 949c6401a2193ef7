from fractions import Fraction

import hypothesis.strategies as st

from superalg import GeneratorSet, SuperPoly
from superalg.core import SuperMonomial

GENS = GeneratorSet(evens=["x", "y"], odds=["t1", "t2", "t3"])

# --- the Koszul sign oracle on increasing support tuples, independent of the
# bitmask rule (``core.cross``) that the engine uses


def mask_of(support) -> int:
    return sum(1 << i for i in support)


def support_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def merge_odds(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two increasing odd supports; sign counts crossings, None on a repeat."""
    merged: list[int] = []
    inversions = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            inversions += len(a) - i
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return (-1 if inversions & 1 else 1), tuple(merged)


def oracle_mul_monomials(m1: SuperMonomial, m2: SuperMonomial):
    merged = merge_odds(support_of(m1.odds), support_of(m2.odds))
    if merged is None:
        return None
    sign, odds = merged
    return sign, SuperMonomial(tuple(a + b for a, b in zip(m1.evens, m2.evens)), mask_of(odds))


def oracle_product(p: SuperPoly, q: SuperPoly) -> SuperPoly:
    """``p * q`` term by term with the signs of ``merge_odds``."""
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            prod = oracle_mul_monomials(m1, m2)
            if prod is not None:
                sign, mono = prod
                terms[mono] = terms.get(mono, 0) + sign * c1 * c2
    return SuperPoly(p.gens, terms)


coefficients = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
).filter(lambda c: c != 0)


@st.composite
def monomials(draw, gens=GENS, max_exp=2):
    evens = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in gens.evens)
    size = draw(st.integers(min_value=0, max_value=len(gens.odds)))
    odds = mask_of(draw(
        st.lists(st.integers(min_value=0, max_value=len(gens.odds) - 1),
                 min_size=size, max_size=size, unique=True)
    ))
    return SuperMonomial(evens, odds)


@st.composite
def polys(draw, gens=GENS, max_terms=4):
    terms = draw(st.dictionaries(monomials(gens), coefficients, max_size=max_terms))
    return SuperPoly(gens, terms)


@st.composite
def homogeneous_polys(draw, gens=GENS, max_terms=3):
    parity = draw(st.integers(min_value=0, max_value=1))
    terms = draw(st.dictionaries(
        monomials(gens).filter(lambda m: m.parity == parity),
        coefficients, min_size=1, max_size=max_terms,
    ))
    return SuperPoly(gens, terms)
