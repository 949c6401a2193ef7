import pytest
from hypothesis import given
import hypothesis.strategies as st

from superalg import GeneratorSet, SuperPoly, TensorPoly
from superalg.tensor import _key_product

from conftest import GENS, flip, homogeneous_polys, monomials, oracle_mul_monomials, polys

A = GeneratorSet(evens=["x"], odds=["t"])
B = GeneratorSet(evens=["y"], odds=["s"])


def test_koszul_sign_example():
    one_a, one_b = SuperPoly.one(A), SuperPoly.one(B)
    t = SuperPoly.generator(A, "t")
    s = SuperPoly.generator(B, "s")
    left = TensorPoly.of(one_a, s) * TensorPoly.of(t, one_b)
    assert left == -TensorPoly.of(t, s)


def test_even_factors_cross_without_sign():
    one_a, one_b = SuperPoly.one(A), SuperPoly.one(B)
    x = SuperPoly.generator(A, "x")
    y = SuperPoly.generator(B, "y")
    assert TensorPoly.of(x, one_b) * TensorPoly.of(one_a, y) == TensorPoly.of(x, y)


@st.composite
def tensors(draw):
    return TensorPoly.of(draw(polys()), draw(polys()))


@given(tensors(), tensors(), tensors())
def test_tensor_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(tensors())
def test_tensor_mul_unital(a):
    unit = TensorPoly.unit((GENS, GENS))
    assert unit * a == a
    assert a * unit == a


@given(homogeneous_polys(), homogeneous_polys())
def test_flip_twice_is_identity(p, q):
    t = TensorPoly.of(p, q)
    assert flip(flip(t)) == t


@given(homogeneous_polys(), homogeneous_polys())
def test_flip_sign(p, q):
    sign = -1 if p.parity_of() == "odd" and q.parity_of() == "odd" else 1
    assert flip(TensorPoly.of(p, q)) == TensorPoly.of(q, p).scale(sign)


def test_multiply_slots_is_plain_multiplication():
    t1 = SuperPoly.generator(GENS, "t1")
    t2 = SuperPoly.generator(GENS, "t2")
    assert TensorPoly.of(t2, t1).multiply_slots() == t2 * t1


ONE_A, ONE_B = SuperPoly.one(A), SuperPoly.one(B)
X, T = SuperPoly.generator(A, "x"), SuperPoly.generator(A, "t")
Y, S = SuperPoly.generator(B, "y"), SuperPoly.generator(B, "s")


def test_zero_tensor_is_falsy():
    assert not TensorPoly.zero((A, B))
    assert not TensorPoly.of(T, S) - TensorPoly.of(T, S)
    assert TensorPoly.unit((A, B))


def test_tensor_parity_of():
    assert TensorPoly.zero((A, B)).parity_of() == "even"
    assert TensorPoly.of(T, S).parity_of() == "even"
    assert (TensorPoly.of(T, ONE_B) + TensorPoly.of(X, S)).parity_of() == "odd"
    assert (TensorPoly.of(T, ONE_B) + TensorPoly.of(X, ONE_B)).parity_of() == "mixed"


def test_tensor_sorted_terms_order_slot_by_slot():
    tensor = TensorPoly.of(X + ONE_A, S + ONE_B)
    keys = [key for key, _ in tensor.sorted_terms()]
    one_a, one_b = next(iter(ONE_A.terms)), next(iter(ONE_B.terms))
    x, s = next(iter(X.terms)), next(iter(S.terms))
    assert keys == [(one_a, one_b), (one_a, s), (x, one_b), (x, s)]
    assert str(tensor) == "1 @ 1 + 1 @ s + x @ 1 + x @ s"
    assert repr(tensor) == f"TensorPoly({tensor})"


def test_tensor_powers():
    xt = TensorPoly.of(X, ONE_B)
    unit = TensorPoly.unit((A, B))
    assert (xt + unit) ** 2 == TensorPoly.of(X * X, ONE_B) + xt.scale(2) + unit
    assert xt ** 0 == unit
    assert not TensorPoly.of(ONE_A, S) ** 2
    with pytest.raises(ValueError):
        xt ** -1


def crossing_count_product(key1, key2):
    """The slotwise key product the long way: for each odd factor of key2,
    count the odd factors of key1 in the slots to its right."""
    k = len(key1)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + key1[i].parity
    crossings = sum(suffix[i + 1] for i in range(k) if key2[i].parity)
    sign = -1 if crossings & 1 else 1
    monos = []
    for m1, m2 in zip(key1, key2):
        prod = oracle_mul_monomials(m1, m2)
        if prod is None:
            return None
        s, mono = prod
        sign *= s
        monos.append(mono)
    return sign, tuple(monos)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.tuples(st.lists(monomials(), min_size=k, max_size=k),
                        st.lists(monomials(), min_size=k, max_size=k))))
def test_key_product_matches_crossing_count(keys):
    key1, key2 = tuple(keys[0]), tuple(keys[1])
    assert _key_product(key1, key2) == crossing_count_product(key1, key2)
