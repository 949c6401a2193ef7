"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import json
import time
from fractions import Fraction

from superalg import (
    PointSampler,
    StructureError,
    SuperMatrix,
    bosonize,
    build_super_lie,
    check_finite_hopf_axioms,
    check_hopf_axioms,
    dual_iso_check,
    exterior_finite,
    exterior_hopf,
    glmn_presentation,
    integral_space,
    primitives,
    spo_pair,
    truncated_dual,
    truncated_envelope,
    validate_hcpair,
)
from superalg.cli import main
from superalg.finite import compose_with_antipode, is_right_integral
from superalg.hopf import additive_presentation

from conftest import check_lie_even, envelope_pbw_count, super_pbw_count
from test_hyper import glmn_oracle


def report(number, label, elapsed, budget):
    status = "PASS" if elapsed < budget else "OVER BUDGET"
    print(f"ACCEPTANCE {number} ({label}): {status} in {elapsed:.1f}s (budget {budget}s)")


def test_criterion_1_antipode_inverse_oracle():
    started = time.perf_counter()
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            sampler = PointSampler(m, n, 6, seed=100 * m + n)
            ident = SuperMatrix.identity(m, n, sampler.alg)
            for i in range(100):
                point = sampler.sample(i)
                assert point.is_gl_point()
                inverse = point.inv()
                assert point.antipode_blocks() == inverse
                assert point * inverse == ident
                assert inverse * point == ident
    elapsed = time.perf_counter() - started
    report(1, "antipode = inverse, 900 points, k=6", elapsed, 30)
    assert elapsed < 30


def test_criterion_2_hopf_axiom_suite():
    started = time.perf_counter()
    for n in range(5):
        assert check_hopf_axioms(exterior_hopf(n)).ok
    for (m, n) in ((1, 1), (2, 1)):
        sampler = PointSampler(m, n, 4, seed=42)
        assert check_hopf_axioms(glmn_presentation(m, n), sampler=sampler, points=100).ok
    elapsed = time.perf_counter() - started
    report(2, "Hopf axioms: exterior symbolic + GL pointwise", elapsed, 10)
    assert elapsed < 10


def test_criterion_3_exterior_duality():
    started = time.perf_counter()
    for n in range(7):
        detail = dual_iso_check(n)
        assert detail.ok, [c["name"] for c in detail.failures()]
    elapsed = time.perf_counter() - started
    report(3, "Lambda(V*) = Lambda(V)* for n <= 6", elapsed, 5)
    assert elapsed < 5


def test_criterion_4_bosonization():
    started = time.perf_counter()
    for n in range(4):
        base = exterior_finite(n)
        result = bosonize(base)
        assert result.dimension == 2 * base.dimension
        assert check_finite_hopf_axioms(result).ok
        for i in range(n):
            blade = base.labels.index(f"v{i + 1}")
            unit = base.labels.index("1")
            expected = {
                (blade, base.dimension + unit): Fraction(1),
                (unit, blade): Fraction(1),
            }
            assert result.delta[blade] == expected
    elapsed = time.perf_counter() - started
    report(4, "bosonization: ordinary Hopf axioms + smash formula", elapsed, 5)
    assert elapsed < 5


def test_criterion_5_integrals():
    started = time.perf_counter()
    for n in range(6):
        hopf = exterior_finite(n)
        space = integral_space(hopf)
        assert space.dimension == 1
        assert space.parity == n % 2
        composed = compose_with_antipode(hopf, space.basis[0])
        assert is_right_integral(hopf, composed)
    elapsed = time.perf_counter() - started
    report(5, "integrals of Lambda(V), n <= 5", elapsed, 2)
    assert elapsed < 2


def test_criterion_6_hyperalgebra():
    started = time.perf_counter()
    ga11 = additive_presentation(1, 1)
    gl11 = glmn_presentation(1, 1)
    for pres, (even_dim, odd_dim) in ((ga11, (1, 1)), (gl11, (2, 2))):
        duals = {k: truncated_dual(pres, k) for k in range(1, 6)}
        duals[5].check_associative_unital()
        assert duals[5].counit_is_unique_group_like()
        for k in range(1, 6):
            assert duals[k].dimension == super_pbw_count(even_dim, odd_dim, k)
        for k in range(1, 5):
            assert duals[k].embeds_in(duals[k + 1])

    lie = primitives(truncated_dual(ga11, 5))
    assert len(lie.even_indices()) == 1 and len(lie.odd_indices()) == 1
    assert lie.bracket == {}

    lie = primitives(truncated_dual(gl11, 5))
    oracle = glmn_oracle(1, 1)
    for i in range(lie.dimension):
        for j in range(lie.dimension):
            got = {lie.labels[k]: c for k, c in lie.bracket_basis(i, j).items()}
            want = {
                f"D[{name}]": coeff
                for name, coeff in oracle(lie.labels[i][2:-1], lie.labels[j][2:-1]).items()
            }
            assert got == want

    assert check_lie_even(gl11, primitives(truncated_dual(gl11, 3)))
    gl21 = glmn_presentation(2, 1)
    assert check_lie_even(gl21, primitives(truncated_dual(gl21, 3)))
    elapsed = time.perf_counter() - started
    report(6, "hyperalgebra: order-5 duals, oracles, Lie even, PBW", elapsed, 60)
    assert elapsed < 60


def test_criterion_7_harish_chandra():
    started = time.perf_counter()
    for r in (1, 2, 3):
        assert validate_hcpair(spo_pair(r)) == []
    for r in (1, 2, 3):
        build_super_lie(spo_pair(r))  # super Jacobi inside, certified from the odd generators
    for d in range(5):
        env = truncated_envelope(build_super_lie(spo_pair(1)), d)
        assert env.dimension == envelope_pbw_count(3, 2, d)
    assert truncated_envelope(build_super_lie(spo_pair(1)), 2).dimension == 19
    elapsed = time.perf_counter() - started
    report(7, "Harish-Chandra: spo axioms, Jacobi, PBW envelope", elapsed, 60)
    assert elapsed < 60


def test_criterion_7_negative_control_no_half_fails_jacobi():
    # Stated criterion: dropping the 1/2 factor must fail the Jacobi check.
    # The scaled bracket provably satisfies every axiom (all checks are
    # linear in the odd bracket, and the cubic ones vanish since v J tv = 0),
    # so this criterion cannot pass; it is kept faithful and left red.
    started = time.perf_counter()
    failed = False
    try:
        pair = spo_pair(1, half=False)
        if validate_hcpair(pair):
            failed = True
        build_super_lie(pair)
    except StructureError:
        failed = True
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 7-negative-control (no-half fails Jacobi): "
        f"{'PASS' if failed else 'FAIL'} in {elapsed:.1f}s (budget 60s)"
    )
    assert failed, "the no-half bracket still satisfies all super Lie axioms"


def test_criterion_8_decomposition_round_trip():
    started = time.perf_counter()
    for (m, n) in ((1, 1), (2, 1), (2, 2)):
        sampler = PointSampler(m, n, 4, seed=10 * m + n)
        alg = sampler.alg
        ident = SuperMatrix.identity(m, n, alg)
        x, y, pp, qp = ident.decomposition_coords()
        assert all(e.is_zero() for row in pp for e in row)
        assert all(e.is_zero() for row in qp for e in row)
        assert SuperMatrix.from_decomposition(x, y, pp, qp, alg) == ident
        for i in range(100):
            point = sampler.sample(i)
            x, y, pp, qp = point.decomposition_coords()
            assert SuperMatrix.from_decomposition(x, y, pp, qp, alg) == point
    elapsed = time.perf_counter() - started
    report(8, "decomposition round trip, 3 shapes x 100 points", elapsed, 10)
    assert elapsed < 10


def test_criterion_9_determinism(tmp_path):
    started = time.perf_counter()
    suites = [
        ["verify", "gl", "--m", "1", "--n", "1", "--thetas", "4",
         "--points", "10", "--seed", "13"],
        ["decompose", "--m", "2", "--n", "1", "--thetas", "4",
         "--points", "10", "--seed", "13"],
        ["hcpair", "--r", "1", "--seed", "13"],
    ]
    for idx, argv in enumerate(suites):
        outputs = []
        for run in range(2):
            path = tmp_path / f"report_{idx}_{run}.json"
            code = main(argv + ["--out", str(path)])
            assert code == 0
            data = json.loads(path.read_text())
            data.pop("timings")
            outputs.append(json.dumps(data, sort_keys=True))
        assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - started
    report(9, "determinism: same seed, identical reports", elapsed, 60)
