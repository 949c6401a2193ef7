from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import delta_of, rref_cotangent
from superalg import (
    GeneratorSet,
    GrassmannAlgebra,
    HopfPresentation,
    PointSampler,
    PresentationError,
    SuperMatrix,
    SuperPoly,
    TensorPoly,
    additive_presentation,
    check_hopf_axioms,
    compute_W,
    evaluate_hom,
    even_quotient,
    exterior_hopf,
    glmn_presentation,
    load_presentation,
)
from superalg.hopf import primitive_presentation
from superalg.presfile import builtin_presentation_path


def test_exterior_trivial():
    pres = exterior_hopf(0)
    assert not pres.gens.names
    assert check_hopf_axioms(pres).ok


def test_exterior_one_generator():
    pres = exterior_hopf(1)
    v = pres.generator_poly("v1")
    one = SuperPoly.one(pres.gens)
    assert pres.delta["v1"] == TensorPoly.of(v, one) + TensorPoly.of(one, v)
    assert pres.counit["v1"] == 0
    assert pres.antipode["v1"] == -v
    assert (v * v).is_zero()


def test_exterior_coproduct_of_blade():
    pres = exterior_hopf(2)
    v1, v2 = pres.generator_poly("v1"), pres.generator_poly("v2")
    one = SuperPoly.one(pres.gens)
    expected = (
        TensorPoly.of(v1 * v2, one)
        + TensorPoly.of(v1, v2)
        - TensorPoly.of(v2, v1)
        + TensorPoly.of(one, v1 * v2)
    )
    assert delta_of(pres, v1 * v2) == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_exterior_axioms_symbolic(n):
    assert check_hopf_axioms(exterior_hopf(n)).ok


def test_corrupted_coproduct_reports_counit_failure():
    pres = exterior_hopf(2)
    bad_delta = dict(pres.delta)
    v1 = pres.generator_poly("v1")
    one = SuperPoly.one(pres.gens)
    bad_delta["v1"] = TensorPoly.of(one, v1)
    corrupted = HopfPresentation(pres.gens, bad_delta, pres.counit, pres.antipode)
    report = check_hopf_axioms(corrupted)
    assert not report.ok
    assert any("v1" in c["name"] and "counit" in c["name"] for c in report.failures())


def test_glmn_counit_vanishes_on_shifted_generators():
    pres = glmn_presentation(2, 1)
    assert all(value == 0 for value in pres.counit.values())


def test_glmn_1_1_coproduct_of_p():
    pres = glmn_presentation(1, 1)
    p = pres.generator_poly("p11")
    x = pres.generator_poly("x11")
    y = pres.generator_poly("y11")
    one = SuperPoly.one(pres.gens)
    expected = (
        TensorPoly.of(p, one) + TensorPoly.of(one, p)
        + TensorPoly.of(x, p) + TensorPoly.of(p, y)
    )
    assert pres.delta["p11"] == expected


def test_glmn_1_0_is_shifted_gl1():
    pres = glmn_presentation(1, 0)
    assert pres.gens.names == ("x11",)
    x = pres.generator_poly("x11")
    one = SuperPoly.one(pres.gens)
    assert pres.delta["x11"] == (
        TensorPoly.of(x, one) + TensorPoly.of(one, x) + TensorPoly.of(x, x)
    )
    assert check_hopf_axioms(pres, sampler=PointSampler(1, 0, 2, seed=1), points=5).ok


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_glmn_axioms_pointwise(m, n):
    sampler = PointSampler(m, n, 4, seed=11)
    assert check_hopf_axioms(glmn_presentation(m, n), sampler=sampler, points=50).ok


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_glmn_coproduct_dualizes_matrix_product(m, n):
    # convolving two points through the coproduct equals multiplying matrices
    from superalg.decomposition import point_images

    pres = glmn_presentation(m, n)
    sampler = PointSampler(m, n, 4, seed=19)
    one = sampler.alg.one()
    for idx in range(5):
        a, b = sampler.sample(2 * idx), sampler.sample(2 * idx + 1)
        at_a, at_b, at_ab = (point_images(pres, point) for point in (a, b, a * b))
        for name in pres.gens.names:
            total = sampler.alg.zero()
            for (m1, m2), coeff in pres.delta[name].terms.items():
                left = evaluate_hom(SuperPoly.monomial(pres.gens, m1), at_a, one)
                right = evaluate_hom(SuperPoly.monomial(pres.gens, m2), at_b, one)
                total = total + (left * right).scale(coeff)
            direct = evaluate_hom(pres.generator_poly(name), at_ab, one)
            assert total == direct, name


class _StubSampler:
    """Yields one fixed matrix for every index."""

    def __init__(self, point):
        self.point = point

    def sample(self, index):
        return self.point


@pytest.mark.parametrize("x, p", [
    (1, (0, 1)),  # an even blade in P breaks the parity pattern
    (0, (0,)),    # the parity pattern holds but the X body is singular
])
def test_pointwise_antipode_reports_a_sampled_non_point(x, p):
    alg = GrassmannAlgebra(2)
    point = SuperMatrix.from_blocks([[alg.scalar(x)]], [[alg.blade(p)]], [[alg.zero()]],
                                    [[alg.one()]], alg)
    assert not point.is_gl_point()
    report = check_hopf_axioms(glmn_presentation(1, 1), sampler=_StubSampler(point), points=1)
    assert report.checks[-1] == {"name": "antipode-pointwise[1 points]", "status": "fail",
                                 "witness": f"point #0: {point.to_json()}"}


def test_glmn_antipode_is_pointwise_only():
    pres = glmn_presentation(1, 1)
    assert not pres.has_symbolic_antipode
    with pytest.raises(PresentationError):
        pres.antipode_of(pres.generator_poly("x11"))


def test_even_quotient_of_exterior_is_base_field():
    quotient = even_quotient(exterior_hopf(3))
    assert not quotient.gens.names


def test_even_quotient_of_glmn():
    quotient = even_quotient(glmn_presentation(1, 1))
    assert quotient.gens.names == ("x11", "y11")
    x = quotient.generator_poly("x11")
    one = SuperPoly.one(quotient.gens)
    assert quotient.delta["x11"] == (
        TensorPoly.of(x, one) + TensorPoly.of(one, x) + TensorPoly.of(x, x)
    )
    assert check_hopf_axioms(quotient, sampler=PointSampler(1, 1, 2, seed=2), points=3).ok


def test_even_quotient_of_even_presentation_unchanged():
    pres = additive_presentation(2, 0)
    assert even_quotient(pres) == pres


def test_compute_W_exterior():
    assert compute_W(exterior_hopf(2)).basis == ["v1", "v2"]


def test_compute_W_purely_even():
    assert compute_W(additive_presentation(2, 0)).basis == []


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_compute_W_glmn_dimension(m, n):
    cotangent = compute_W(glmn_presentation(m, n))
    assert cotangent.dimension == 2 * m * n
    assert set(cotangent.basis) == set(glmn_presentation(m, n).gens.odds)


GL_SHAPES = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
COTANGENT_CASES = {
    **{f"exterior({n})": lambda n=n: exterior_hopf(n) for n in range(8)},
    **{f"additive({e}|{o})": lambda e=e, o=o: additive_presentation(e, o)
       for e in range(4) for o in range(5)},
    **{f"gl({m}|{n})": lambda m=m, n=n: glmn_presentation(m, n) for m, n in GL_SHAPES},
    **{f"gl({m}|{n})_ev": lambda m=m, n=n: even_quotient(glmn_presentation(m, n))
       for m, n in GL_SHAPES},
    **{name: lambda name=name: load_presentation(builtin_presentation_path(name))
       for name in ("exterior_2.shp", "gl_1_1.shp")},
}


@pytest.mark.parametrize("case", list(COTANGENT_CASES))
def test_compute_W_agrees_with_row_reduction(case):
    # the lemma in compute_W against the row reduction it replaced
    pres = COTANGENT_CASES[case]()
    assert compute_W(pres).basis == rref_cotangent(pres)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True),
       st.lists(st.sampled_from(["s", "t", "u", "v"]), max_size=4, unique=True))
def test_compute_W_agrees_with_row_reduction_on_drawn_generators(evens, odds):
    pres = primitive_presentation(evens, odds)
    assert compute_W(pres).basis == rref_cotangent(pres)


def test_odd_counit_must_vanish():
    gens = GeneratorSet(odds=["v"])
    v = SuperPoly.generator(gens, "v")
    one = SuperPoly.one(gens)
    delta = {"v": TensorPoly.of(v, one) + TensorPoly.of(one, v)}
    with pytest.raises(PresentationError):
        HopfPresentation(gens, delta, {"v": Fraction(1)}, {"v": -v})


def test_parity_inconsistent_coproduct_rejected():
    gens = GeneratorSet(evens=["a"], odds=["v"])
    v = SuperPoly.generator(gens, "v")
    a = SuperPoly.generator(gens, "a")
    one = SuperPoly.one(gens)
    delta = {
        "v": TensorPoly.of(a, one),  # even image of an odd generator
        "a": TensorPoly.of(a, one) + TensorPoly.of(one, a),
    }
    with pytest.raises(PresentationError):
        HopfPresentation(gens, delta, {"v": Fraction(0), "a": Fraction(0)}, None)
