import functools
import random
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from superalg import bosonize, exterior_finite, finite, hyper, table
from superalg.core import F1
from superalg.finite import FiniteDimHopf, check_finite_hopf_axioms, dual_hopf, finite_from_presentation
from superalg.hopf import exterior_hopf, glmn_presentation
from superalg.hyper import truncated_dual
from superalg.liealg import StructureError

from conftest import brute_force_bad_triples

# k[x]/(x^3) on 1, x, x^2: e_i e_j = e_{i+j}, zero past degree 2


def truncated_polynomials():
    return {(i, j): {i + j: F1} for i in range(3) for j in range(3) if i + j <= 2}


def constants(tab, dim):
    """c[i][j][k]: the dense structure constants."""
    return [[[tab.get((i, j), {}).get(k, 0) for k in range(dim)] for j in range(dim)] for i in range(dim)]


def dense_product(tab, dim, u, v):
    c = constants(tab, dim)
    out = [sum(u.get(i, 0) * v.get(j, 0) * c[i][j][k] for i in range(dim) for j in range(dim))
           for k in range(dim)]
    return {k: x for k, x in enumerate(out) if x}


def test_truncated_polynomials_are_associative_and_unital():
    tab = truncated_polynomials()
    assert table.first_nonunital(tab, 3, {0: F1}) is None
    assert table.first_nonassociative(tab, 3) is None


def test_wrong_unit_constant_is_found_first_in_order():
    tab = truncated_polynomials()
    tab[(0, 1)] = {1: Fraction(2)}  # 1 x = 2x
    assert table.first_nonunital(tab, 3, {0: F1}) == 1
    # (1 1) x = 2x but 1 (1 x) = 4x
    assert table.first_nonassociative(tab, 3) == (0, 0, 1)


def test_bad_triple_above_the_degree_bound_is_skipped():
    tab = truncated_polynomials()
    tab[(1, 2)] = {2: F1}  # x x^2 = x^2, although x^3 lies past the bound
    assert table.first_nonunital(tab, 3, {0: F1}) is None
    # (x x) x = x^2 x = 0 but x (x x) = x x^2 = x^2, at degree 3; the bounded
    # scan is the oracle of the truncated envelope
    assert table.first_nonassociative(tab, 3) == (1, 1, 1)
    assert brute_force_bad_triples(tab, 3, [0, 1, 2], 2) == []
    assert brute_force_bad_triples(tab, 3, [0, 1, 2], 3) == [(1, 1, 1)]


def test_add_into_scales_and_drops_cancellations():
    out = {0: F1, 1: Fraction(1, 2)}
    table.add_into(out, {1: F1, 2: Fraction(3)}, Fraction(-1, 2))
    assert out == {0: F1, 2: Fraction(-3, 2)}
    table.add_into(out, {5: F1}, 0)
    assert out == {0: F1, 2: Fraction(-3, 2)}


def test_image_applies_rows():
    rows = {0: {1: F1}, 1: {0: F1, 1: Fraction(2)}}
    assert table.image(rows, {0: Fraction(2), 1: F1}) == {0: F1, 1: Fraction(4)}
    assert table.image(rows, {0: Fraction(-2), 1: F1}) == {0: F1}


@pytest.mark.parametrize("seed", range(12))
def test_products_and_scans_match_dense_oracle(seed):
    # Lambda(3) with one structure constant replaced at random
    rng = random.Random(seed)
    dim = 8
    tab = {key: dict(cell) for key, cell in exterior_finite(3).mult.items() if cell}
    key = (rng.randrange(dim), rng.randrange(dim))
    cell = {**tab.get(key, {}), rng.randrange(dim): Fraction(rng.randint(-2, 2))}
    tab[key] = {k: c for k, c in cell.items() if c}
    u = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(dim)}
    u = {i: c for i, c in u.items() if c}
    assert table.times_basis(tab, u, key[1]) == dense_product(tab, dim, u, {key[1]: F1})
    assert table.basis_times(tab, key[0], u) == dense_product(tab, dim, {key[0]: F1}, u)
    bad = brute_force_bad_triples(tab, dim)
    assert table.first_nonassociative(tab, dim) == (bad[0] if bad else None)


def test_transpose_swaps_keys_and_adds_requested_rows():
    rows = {0: {1: 2, 2: -1}, 1: {2: Fraction(3, 2)}}
    assert table.transpose(rows) == {1: {0: 2}, 2: {0: -1, 1: Fraction(3, 2)}}
    assert table.transpose(rows, range(4)) == {
        0: {}, 1: {0: 2}, 2: {0: -1, 1: Fraction(3, 2)}, 3: {},
    }
    assert table.transpose(table.transpose(rows)) == rows
    assert table.transpose({}, range(2)) == {0: {}, 1: {}}


def test_transpose_of_a_product_is_its_dual_coproduct():
    # k[x]/(x^3): Delta(e_k) = sum over i + j = k of e_i (x) e_j, all coefficients kept as given
    tab = truncated_polynomials()
    delta = table.transpose(tab, range(3))
    assert delta == {
        0: {(0, 0): F1},
        1: {(0, 1): F1, (1, 0): F1},
        2: {(0, 2): F1, (1, 1): F1, (2, 0): F1},
    }
    assert all(type(c) is Fraction for row in delta.values() for c in row.values())
    assert table.transpose(delta) == tab


# --- the generator certificate against the dense scans


def primitive_indices(hopf):
    (one,) = hopf.unit
    return [i for i in range(hopf.dimension)
            if i != one and hopf.delta.get(i) == {(i, one): 1, (one, i): 1}]


def hopf_case(hopf):
    return {"tab": hopf.mult, "dim": hopf.dimension, "unit": hopf.unit,
            "gens": primitive_indices(hopf), "hopf": hopf}


def dual_case(dual):
    return {"tab": dual.product, "dim": dual.dimension, "unit": {0: F1},
            "gens": [i for i, d in enumerate(dual.degree) if d == 1], "dual": dual}


@functools.cache
def certificate_case(name):
    constructions = {
        "Lambda(3)": lambda: hopf_case(exterior_finite(3)),
        "Lambda(4)": lambda: hopf_case(exterior_finite(4)),
        "Lambda(5)": lambda: hopf_case(exterior_finite(5)),
        "Lambda(5)*": lambda: hopf_case(dual_hopf(finite_from_presentation(exterior_hopf(5)))),
        "hy gl(1|1) order 4": lambda: dual_case(truncated_dual(glmn_presentation(1, 1), 4)),
        "bosonize(Lambda(2))": lambda: bosonized_case(bosonize(exterior_finite(2))),
    }
    return constructions[name]()


def bosonized_case(hopf):
    # no primitives, but the closure of 1 under {v1, v2, g} spans the algebra
    return {**hopf_case(hopf), "gens": sorted(hopf.labels.index(x) for x in ("v1", "v2", "g"))}


CASE_NAMES = ["Lambda(3)", "Lambda(4)", "Lambda(5)", "Lambda(5)*", "hy gl(1|1) order 4"]
KINDS = ["doubled", "negated", "extra term"]


def corrupted(case, kind, rng):
    """A copy of the case's table with one cell doubled, negated, or given an extra term."""
    tab = {key: dict(cell) for key, cell in case["tab"].items() if cell}
    dim = case["dim"]
    if kind == "extra term":
        key = rng.choice([(i, j) for i in range(dim) for j in range(dim)])
        cell = tab.setdefault(key, {})
        k = rng.randrange(dim)
        cell[k] = cell.get(k, 0) + rng.choice([1, -1, Fraction(1, 2)])
        if not cell[k]:
            del cell[k]
    else:
        key = rng.choice(sorted(tab))
        tab[key] = {k: 2 * c if kind == "doubled" else -c for k, c in tab[key].items()}
    return tab


def certified_first(tab, case, **overrides):
    """What the callers compute: None when certified, else the dense scan's first triple."""
    args = {**{k: case[k] for k in ("dim", "unit", "gens")}, **overrides}
    if table.certify_associative(tab, **args):
        return None
    return table.first_nonassociative(tab, args["dim"])


def dense_first(tab, case):
    return table.first_nonassociative(tab, case["dim"])


def dense_path(module, monkeypatch):
    """Force ``module``'s callers onto the dense scans."""
    monkeypatch.setattr(module, "certify_associative", lambda *args: False)


def associativity_outcome(dual):
    try:
        dual.check_associative_unital()
    except StructureError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", CASE_NAMES)
def test_uncorrupted_tables_are_certified(name):
    case = certificate_case(name)
    assert case["gens"]
    assert table.certify_associative(case["tab"], case["dim"], case["unit"], case["gens"])


@pytest.mark.parametrize("name", ["Lambda(4)", "Lambda(5)*"])
def test_certified_coproduct_check_compares_only_generator_pairs(name, monkeypatch):
    case = certificate_case(name)
    hopf = case["hopf"]
    calls = []
    tensor_mul = FiniteDimHopf.tensor_mul
    monkeypatch.setattr(FiniteDimHopf, "tensor_mul",
                        lambda self, a, b: calls.append(1) or tensor_mul(self, a, b))
    assert check_finite_hopf_axioms(hopf).ok
    assert len(calls) == (len(case["gens"]) + 1) * case["dim"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_certified_path_matches_dense_scans_on_corrupted_cells(name, kind, monkeypatch):
    case = certificate_case(name)
    for seed in range(5):
        tab = corrupted(case, kind, random.Random(f"{name}/{kind}/{seed}"))
        assert certified_first(tab, case) == dense_first(tab, case)
        if "hopf" in case:
            mutant = replace(case["hopf"], mult=tab)
            certified = check_finite_hopf_axioms(mutant).checks
            with monkeypatch.context() as patch:
                dense_path(finite, patch)
                assert check_finite_hopf_axioms(mutant).checks == certified
        if "dual" in case:
            mutant = replace(case["dual"], product=tab)
            certified = associativity_outcome(mutant)
            with monkeypatch.context() as patch:
                dense_path(hyper, patch)
                assert associativity_outcome(mutant) == certified


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES + ["bosonize(Lambda(2))"])
def test_support_driven_scan_lists_every_failing_triple(name, kind):
    # k runs only over the row supports of j and of supp(e_i e_j): every
    # triple the scan skips must be one the definition finds associative
    case = certificate_case(name)
    dim, gens = case["dim"], case["gens"]
    for seed in range(10):
        tab = corrupted(case, kind, random.Random(f"scan/{name}/{kind}/{seed}"))
        bad = brute_force_bad_triples(tab, dim)
        assert list(table._failing_triples(tab, range(dim), dim)) == bad
        assert list(table._failing_triples(tab, gens, dim)) == [t for t in bad if t[0] in gens]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CASE_NAMES), st.sampled_from(KINDS), st.randoms(use_true_random=False))
def test_certificate_is_sound_on_generated_corruptions(name, kind, rng):
    case = certificate_case(name)
    tab = corrupted(case, kind, rng)
    assert certified_first(tab, case) == dense_first(tab, case)


def test_generators_that_do_not_span_fall_back():
    case = certificate_case("Lambda(4)")
    fewer = case["gens"][:-1]
    assert not table.certify_associative(case["tab"], case["dim"], case["unit"], fewer)
    for seed in range(5):
        tab = corrupted(case, "negated", random.Random(seed))
        assert certified_first(tab, case, gens=fewer) == dense_first(tab, case)


@pytest.mark.parametrize("unit", [{1: F1}, {0: Fraction(2)}, {0: F1, 1: F1}, {}])
def test_a_unit_that_is_not_one_basis_index_falls_back(unit):
    case = certificate_case("Lambda(5)*")
    assert not table.certify_associative(case["tab"], case["dim"], unit, case["gens"])
    tab = corrupted(case, "doubled", random.Random(3))
    assert certified_first(tab, case, unit=unit) == dense_first(tab, case)


def test_closure_returns_to_a_cell_once_its_other_terms_are_reached():
    # k[x]/(x^4) on 1, x, x^2 + x^3, x^3, with G = {x^3, x}: x x = e_2 - e_3
    # has two unreached terms until x^3 = x^3 1 is reached
    basis = [{0: 1}, {1: 1}, {2: 1, 3: 1}, {3: 1}]
    coords = {0: {0: 1}, 1: {1: 1}, 2: {2: 1, 3: -1}, 3: {3: 1}}  # x^p in the basis
    tab = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            cell = {}
            for p, a in u.items():
                for q, b in v.items():
                    if p + q < 4:
                        table.add_into(cell, coords[p + q], a * b)
            if cell:
                tab[(i, j)] = cell
    assert tab[(1, 1)] == {2: 1, 3: -1}
    assert table.first_nonassociative(tab, 4) is None
    assert table.certify_associative(tab, 4, {0: 1}, [3, 1])
    assert not table.certify_associative(tab, 4, {0: 1}, [1])
