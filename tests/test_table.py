import functools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from superalg import bosonize, exterior_finite, finite, hyper, parse_presentation, table
from superalg.core import F1
from superalg.finite import FiniteDimHopf, check_finite_hopf_axioms, dual_hopf, finite_from_presentation
from superalg.hopf import additive_presentation, exterior_hopf, glmn_presentation
from superalg.hyper import truncated_dual

from conftest import associativity_outcome, brute_force_bad_triples, replace

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


def generators(hopf):
    return table.certify_associative(hopf.mult, hopf.dimension, hopf.unit)


def hopf_case(hopf):
    return {"tab": hopf.mult, "dim": hopf.dimension, "unit": hopf.unit,
            "gens": generators(hopf), "hopf": hopf}


def dual_case(dual, degree=None, bound=None):
    unit = {0: F1}
    return {"tab": dual.product, "dim": dual.dimension, "unit": unit, "dual": dual,
            "gens": table.certify_associative(dual.product, dual.dimension, unit, degree, bound)}


@functools.cache
def certificate_case(name):
    constructions = {
        "Lambda(3)": lambda: hopf_case(exterior_finite(3)),
        "Lambda(4)": lambda: hopf_case(exterior_finite(4)),
        "Lambda(5)": lambda: hopf_case(exterior_finite(5)),
        "Lambda(5)*": lambda: hopf_case(dual_hopf(finite_from_presentation(exterior_hopf(5)))),
        "hy gl(1|1) order 4": lambda: dual_case(truncated_dual(glmn_presentation(1, 1), 4)),
        # no primitives: G is the skew-primitive v_i and the group-like g
        "bosonize(Lambda(2))": lambda: hopf_case(bosonize(exterior_finite(2))),
        "bosonize(Lambda(3))": lambda: hopf_case(bosonize(exterior_finite(3))),
    }
    return constructions[name]()


CASE_NAMES = ["Lambda(3)", "Lambda(4)", "Lambda(5)", "Lambda(5)*", "hy gl(1|1) order 4",
              "bosonize(Lambda(2))", "bosonize(Lambda(3))"]
KINDS = ["doubled", "negated", "extra term"]


def corrupted(case, kind, rng):
    """A copy of the case's table with one cell doubled, negated, or given an extra term."""
    tab = {key: dict(cell) for key, cell in case["tab"].items() if cell}
    dim = case["dim"]
    if kind == "extra term":
        key = rng.choice(case.get("pairs") or [(i, j) for i in range(dim) for j in range(dim)])
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
    args = {**{k: case[k] for k in ("dim", "unit")}, **overrides}
    if table.certify_associative(tab, **args) is not None:
        return None
    return table.first_nonassociative(tab, args["dim"])


def dense_first(tab, case):
    return table.first_nonassociative(tab, case["dim"])


def dense_path(module, monkeypatch):
    """Force ``module``'s callers onto the dense scans (in ``finite`` every
    certificate rests on the associativity one, so all four checks scan)."""
    monkeypatch.setattr(module, "certify_associative", lambda *args: None)


def assert_certified_report_is_dense(hopf, monkeypatch):
    certified = check_finite_hopf_axioms(hopf).checks
    with monkeypatch.context() as patch:
        dense_path(finite, patch)
        assert check_finite_hopf_axioms(hopf).checks == certified


@pytest.mark.parametrize("name", CASE_NAMES)
def test_uncorrupted_tables_are_certified(name):
    # G is the degree-1 elements, and g on a bosonization; on the full,
    # ungraded hy table the closure reaches D[x11] through D[p11] D[q11], so
    # there only that the certificate applies is asserted
    case = certificate_case(name)
    assert case["gens"]
    if "hopf" in case:
        labels = case["hopf"].labels
        degree_one = [label for label in labels if label.count("v") == 1 and "." not in label]
        assert [labels[g] for g in case["gens"]] == degree_one + ["g"] * ("g" in labels)


@pytest.mark.parametrize("name", ["Lambda(4)", "Lambda(5)*", "bosonize(Lambda(3))"])
def test_certified_coproduct_check_compares_only_generator_pairs(name, monkeypatch):
    # Delta on the pairs (g, b) with g in {1} and G, eps on those with g in G;
    # one more counit call reads eps(1)
    case = certificate_case(name)
    dim, gens = case["dim"], case["gens"]
    assert len(gens) + 1 == {"Lambda(4)": 5, "Lambda(5)*": 6, "bosonize(Lambda(3))": 5}[name]
    calls = {"tensor_mul": 0, "vec_counit": 0}
    for method in calls:
        original = getattr(FiniteDimHopf, method)

        def counted(self, *args, method=method, original=original):
            calls[method] += 1
            return original(self, *args)

        monkeypatch.setattr(FiniteDimHopf, method, counted)
    assert check_finite_hopf_axioms(case["hopf"]).ok
    assert calls == {"tensor_mul": (len(gens) + 1) * dim, "vec_counit": len(gens) * dim + 1}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_certified_path_matches_dense_scans_on_corrupted_cells(name, kind, monkeypatch):
    case = certificate_case(name)
    for seed in range(5):
        tab = corrupted(case, kind, random.Random(f"{name}/{kind}/{seed}"))
        assert certified_first(tab, case) == dense_first(tab, case)
        if "hopf" in case:
            assert_certified_report_is_dense(replace(case["hopf"], mult=tab), monkeypatch)
        if "dual" in case:
            mutant = replace(case["dual"], product=tab)
            certified = associativity_outcome(mutant)
            with monkeypatch.context() as patch:
                dense_path(hyper, patch)
                assert associativity_outcome(mutant) == certified


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
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


@pytest.mark.parametrize("unit", [{1: F1}, {0: Fraction(2)}, {0: F1, 1: F1}, {}])
def test_a_unit_that_is_not_one_basis_index_falls_back(unit):
    case = certificate_case("Lambda(5)*")
    assert table.certify_associative(case["tab"], case["dim"], unit) is None
    tab = corrupted(case, "doubled", random.Random(3))
    assert certified_first(tab, case, unit=unit) == dense_first(tab, case)


def test_closure_returns_to_a_cell_once_its_other_terms_are_reached():
    # k[x]/(x^4) on 1, x, x^2 + x^3, x^3: x x = e_2 - e_3 has two unreached
    # terms, so e_2 joins G; then x x reaches x^3
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
    assert table.certify_associative(tab, 4, {0: 1}) == [1, 2]


# --- the graded certificate on the exact range of the truncated hyperalgebra


@functools.cache
def exact_case(name):
    pres, order = {"hy gl(1|1) order 5": (glmn_presentation(1, 1), 5),
                   "hy gl(2|1) order 4": (glmn_presentation(2, 1), 4)}[name]
    dual = truncated_dual(pres, order, exact_only=True)
    return {**dual_case(dual, dual.degree, order), "degree": dual.degree, "bound": order,
            "pairs": [(i, j) for i in range(dual.dimension) for j in range(dual.dimension)
                      if dual.degree[i] + dual.degree[j] < order]}


EXACT_CASES = ["hy gl(1|1) order 5", "hy gl(2|1) order 4"]


def range_args(case):
    return {k: case[k] for k in ("dim", "unit", "degree", "bound")}


@pytest.mark.parametrize("name", EXACT_CASES)
def test_exact_range_is_certified(name):
    case = exact_case(name)
    assert table.certify_associative(case["tab"], **range_args(case)) is not None


@pytest.mark.parametrize("target", ["ga11", "gl11", "gl21"])
def test_graded_generators_of_hy_are_the_degree_1_duals(target):
    # no product of the exact range reaches a degree-1 index, and the closure
    # under those reaches every other index of the duals the hy suite builds
    pres = {"ga11": additive_presentation(1, 1), "gl11": glmn_presentation(1, 1),
            "gl21": glmn_presentation(2, 1)}[target]
    for order in range(1, 7):
        dual = truncated_dual(pres, order, exact_only=order > 3)
        gens = table.certify_associative(dual.product, dual.dimension, {0: F1}, dual.degree, order)
        assert gens == [i for i, d in enumerate(dual.degree) if d == 1]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", EXACT_CASES)
def test_bounded_scan_lists_every_failing_triple_of_the_range(name, kind):
    case = exact_case(name)
    dim, degree, bound, gens = case["dim"], case["degree"], case["bound"], case["gens"]
    for seed in range(3):
        tab = corrupted(case, kind, random.Random(f"range/{name}/{kind}/{seed}"))
        bad = brute_force_bad_triples(tab, dim, degree, bound - 1)
        assert list(table._failing_triples(tab, range(dim), dim, degree, bound)) == bad
        assert list(table._failing_triples(tab, gens, dim, degree, bound)) == [
            t for t in bad if t[0] in gens]


@pytest.mark.parametrize("name", EXACT_CASES)
def test_graded_certificate_is_sound_on_corrupted_exact_cells(name, monkeypatch):
    # whenever the certificate holds, the dense scan of the range finds nothing;
    # corruptions that keep the unit law are all caught, and the report's
    # witness is the dense scan's
    case = exact_case(name)
    dim, degree, bound = case["dim"], case["degree"], case["bound"]
    caught = 0
    for seed in range(60):
        tab = corrupted(case, KINDS[seed % 3], random.Random(f"exact/{name}/{seed}"))
        if table.first_nonunital(tab, dim, case["unit"]) is not None:
            continue
        first = table.first_nonassociative(tab, dim, degree, bound)
        if table.certify_associative(tab, **range_args(case)) is not None:
            assert first is None
        else:
            caught += first is not None
        mutant = replace(case["dual"], product=tab)
        witness = associativity_outcome(mutant)
        with monkeypatch.context() as patch:
            dense_path(hyper, patch)
            assert associativity_outcome(mutant) == witness
    assert caught >= 30


def test_closure_refuses_an_index_of_the_wrong_degree():
    # k[x]/(x^3) with x^2 labelled degree 1: x x has x^2 as its only new index,
    # of degree 1 where 2 is due, so the closure under G = {x} stays stuck and
    # x^2 joins G
    tab = truncated_polynomials()
    assert table.certify_associative(tab, 3, {0: F1}) == [1]
    assert table.certify_associative(tab, 3, {0: F1}, [0, 1, 2], 3) == [1]
    assert table.certify_associative(tab, 3, {0: F1}, [0, 1, 1], 3) == [1, 2]
    assert table.first_nonassociative(tab, 3, [0, 1, 1], 3) is None


def test_a_cell_that_raises_degree_is_no_certificate():
    # k[x, y]/(x, y)^4 on its monomials, with x^2 replaced by X = x^2 + y^3,
    # still of degree 2: associative, and the closure under G = {x, y} reaches
    # every index (X once y^3 is reached), but x x = X - y^3 leaves degree 2
    monos = [(a, d - a) for d in range(4) for a in range(d, -1, -1)]
    index = {m: i for i, m in enumerate(monos)}
    degree = [sum(m) for m in monos]
    big_x, y3 = index[(2, 0)], index[(0, 3)]
    vecs = [{m: 1} for m in monos]
    vecs[big_x] = {(2, 0): 1, (0, 3): 1}

    def coords(m):
        if m not in index:
            return {}
        return {big_x: 1, y3: -1} if m == (2, 0) else {index[m]: 1}

    tab = {}
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            cell = {}
            for p, a in u.items():
                for q, b in v.items():
                    table.add_into(cell, coords((p[0] + q[0], p[1] + q[1])), a * b)
            if cell:
                tab[(i, j)] = cell
    dim, x, y = len(monos), index[(1, 0)], index[(0, 1)]
    assert tab[(x, x)] == {big_x: 1, y3: -1}
    assert table.first_nonassociative(tab, dim) is None
    assert table.certify_associative(tab, dim, {0: F1}) == [x, y]
    assert table.certify_associative(tab, dim, {0: F1}, degree, 4) is None


# --- the generators and the certificates of ``check_finite_hopf_axioms``
# against the forced-dense report


@pytest.mark.parametrize("n", range(5))
def test_generating_set_of_exterior_tables_is_the_primitives(n):
    hopf = exterior_finite(n)
    dual = dual_hopf(finite_from_presentation(exterior_hopf(n)))
    for tables in (hopf, dual):
        primitives = [i for i in range(tables.dimension)
                      if i != 0 and tables.delta.get(i) == {(i, 0): 1, (0, i): 1}]
        degree_one = [i for i, label in enumerate(tables.labels) if label.count("v") == 1]
        assert generators(tables) == primitives == degree_one
    assert [dual.labels[i] for i in generators(dual)] == [f"v{a + 1}*" for a in range(n)]


@pytest.mark.parametrize("n", range(5))
def test_generating_set_of_a_bosonization_is_g_and_the_skew_primitives(n):
    # Delta(v_i) = v_i (x) g + 1 (x) v_i and Delta(g) = g (x) g; the closure
    # reaches each g.v_I as g times v_I, so no g.v_i joins G
    hopf = bosonize(exterior_finite(n))
    assert [hopf.labels[i] for i in generators(hopf)] == [f"v{a + 1}" for a in range(n)] + ["g"]


def test_a_corrupted_generator_coproduct_takes_the_dense_path(monkeypatch):
    # doubling Delta(v1) leaves the product, so G = {v1, v2, v3} still
    # certifies associativity; with eps(v1) = 1 the pairs (v1, y) fail the
    # coproduct and counit comparisons, and the dense scans give the witnesses
    hopf = exterior_finite(3)
    v1 = hopf.labels.index("v1")
    counit = list(hopf.counit)
    counit[v1] = 1
    mutant = replace(hopf, counit=counit, delta={
        **hopf.delta, v1: {key: 2 * c for key, c in hopf.delta[v1].items()}})
    assert [mutant.labels[i] for i in generators(mutant)] == ["v1", "v2", "v3"]
    report = check_finite_hopf_axioms(mutant)
    assert {c["name"]: c["witness"] for c in report.failures()} == {
        "counit": "counit law fails at v1",
        "coassociativity": "coassociativity fails at v1",
        "coproduct-multiplicative": "coproduct is not an algebra map at (v1, v2)",
        "counit-multiplicative": "counit is not an algebra map at (v1, v1)",
        "antipode": "antipode identity fails at v1",
    }
    assert_certified_report_is_dense(mutant, monkeypatch)


NONCOASSOCIATIVE = """odd v1, v2;
delta v1 = v1 @ 1 + 1 @ v1 + v1*v2 @ v2;
delta v2 = v2 @ 1 + 1 @ v2;
eps v1 = 0;
eps v2 = 0;
antipode v1 = -v1;
antipode v2 = -v2;
"""


def test_coassociativity_is_compared_on_each_generator(monkeypatch):
    # Delta extends multiplicatively from the generators, so it is an algebra
    # map, but Delta(v1) is not coassociative; the product is that of
    # Lambda(2), so G = {v1, v2} certifies it, and then the comparison at v1
    # sends coassociativity to the dense scan
    hopf = finite_from_presentation(parse_presentation(NONCOASSOCIATIVE))
    assert generators(hopf) == [1, 2]
    failed = {c["name"]: c.get("witness") for c in check_finite_hopf_axioms(hopf).failures()}
    assert failed == {"coassociativity": "coassociativity fails at v1"}
    assert_certified_report_is_dense(hopf, monkeypatch)


HOPF_CASES = ["Lambda(4)", "Lambda(5)*", "bosonize(Lambda(2))", "bosonize(Lambda(3))"]
DELTA_KINDS = ["delta doubled", "delta negated term", "delta extra term"]
COUNIT_KINDS = ["counit shifted", "counit zeroed"]


def corrupted_hopf(hopf, kind, rng):
    """A copy of ``hopf`` with one product cell, one coproduct row or one counit entry corrupted."""
    dim = hopf.dimension
    if kind in KINDS:
        return replace(hopf, mult=corrupted({"tab": hopf.mult, "dim": dim}, kind, rng))
    if kind in COUNIT_KINDS:
        counit = list(hopf.counit)
        if kind == "counit zeroed":
            i = rng.choice([i for i, c in enumerate(counit) if c])
            counit[i] = 0
        else:
            i = rng.randrange(dim)
            counit[i] += rng.choice([1, -1, Fraction(1, 2)])
        return replace(hopf, counit=counit)
    delta = {i: dict(row) for i, row in hopf.delta.items()}
    i = rng.randrange(dim)
    row = delta.setdefault(i, {})
    if kind == "delta extra term":
        key = (rng.randrange(dim), rng.randrange(dim))
        row[key] = row.get(key, 0) + rng.choice([1, -1, Fraction(1, 2)])
        if not row[key]:
            del row[key]
    elif kind == "delta doubled":
        delta[i] = {key: 2 * c for key, c in row.items()}
    else:
        key = rng.choice(sorted(row))
        row[key] = -row[key]
    return replace(hopf, delta=delta)


@pytest.mark.parametrize("kind", DELTA_KINDS + COUNIT_KINDS)
@pytest.mark.parametrize("name", HOPF_CASES)
def test_certified_report_matches_dense_report_on_corrupted_tables(name, kind, monkeypatch):
    hopf = certificate_case(name)["hopf"]
    for seed in range(4):
        mutant = corrupted_hopf(hopf, kind, random.Random(f"report/{name}/{kind}/{seed}"))
        assert_certified_report_is_dense(mutant, monkeypatch)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HOPF_CASES), st.sampled_from(KINDS + DELTA_KINDS + COUNIT_KINDS),
       st.randoms(use_true_random=False))
def test_certified_report_matches_dense_report_on_generated_corruptions(name, kind, rng):
    hopf = certificate_case(name)["hopf"]
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_certified_report_is_dense(corrupted_hopf(hopf, kind, rng), monkeypatch)

