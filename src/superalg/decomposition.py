"""Pointwise verification of the tensor-product decomposition of GL(m|n).

For a point (X P; Q Y) the coordinates (X, Y, p' = X^-1 P, q' = Y^-1 Q)
give an exact bijection with pairs (even point, odd coordinates).  Checked
here, per sampled point: the round trip, counit preservation (the identity
maps to (identity, 0, 0)), naturality in the base Grassmann algebra, the
intertwining of the even subgroup with the even-quotient presentation, and
the comodule control: the primed odd coordinates are invariant under left
translation by even points while the naive (P, Q) coordinates are not.
"""

from __future__ import annotations

from .core import SuperPoly, evaluate_hom
from .grassmann import GrassmannAlgebra, PointSampler, SuperMatrix, truncate_map
from .hopf import AxiomReport, HopfPresentation, even_quotient, glmn_presentation, glmn_entry_name


def point_images(pres: HopfPresentation, point: SuperMatrix) -> dict[str, SuperPoly]:
    """Generator images of the algebra map 'evaluate at this point'.

    Identity-shifted generators evaluate to entry minus the identity matrix.
    """
    m, n = pres.shape
    images: dict[str, SuperPoly] = {}
    size = m + n
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            name = glmn_entry_name(m, n, a, b)
            if name not in pres.gens:
                continue
            entry = point.rows[a - 1][b - 1]
            if a == b:
                entry = entry - point.alg.one()
            images[name] = entry
    return images


def evaluate_at_point(pres: HopfPresentation, poly: SuperPoly, point: SuperMatrix) -> SuperPoly:
    return evaluate_hom(poly, point_images(pres, point), point.alg.one())


def decomposition_check(m: int, n: int, k: int, points: int, seed: int) -> AxiomReport:
    """Run the full pointwise decomposition suite on seeded samples."""
    report = AxiomReport()
    sampler = PointSampler(m, n, k, seed)
    alg = sampler.alg
    ident = SuperMatrix.identity(m, n, alg)

    x, y, pprime, qprime = ident.decomposition_coords()
    ok = all(e.is_zero() for row in pprime for e in row) and all(
        e.is_zero() for row in qprime for e in row
    )
    ok = ok and SuperMatrix.from_decomposition(x, y, pprime, qprime, alg) == ident
    report.add("identity-maps-to-(identity,0,0)", ok)

    round_ok = True
    parity_ok = True
    witness = ""
    for idx in range(points):
        point = sampler.sample(idx)
        x, y, pp, qp = point.decomposition_coords()
        rebuilt = SuperMatrix.from_decomposition(x, y, pp, qp, alg)
        if rebuilt != point:
            round_ok = False
            witness = f"point #{idx}"
            break
        for block in (pp, qp):
            for row in block:
                for e in row:
                    if not e.is_zero() and e.parity_of() != "odd":
                        parity_ok = False
    report.add(f"round-trip[{points} points]", round_ok, witness)
    report.add("odd-coordinates-are-odd", parity_ok)

    # naturality: the coordinates commute with a base change R -> R'
    smaller = GrassmannAlgebra(max(k - 1, 0))
    shrink = truncate_map(alg, smaller)
    nat_ok = True
    witness = ""
    for idx in range(min(points, 25)):
        point = sampler.sample(idx)
        x, y, pp, qp = point.decomposition_coords()
        moved = point.map_entries(shrink, smaller)
        if not moved.is_gl_point():
            continue
        mx, my, mpp, mqp = moved.decomposition_coords()
        shrunk = (
            [[shrink(e) for e in row] for row in x],
            [[shrink(e) for e in row] for row in y],
            [[shrink(e) for e in row] for row in pp],
            [[shrink(e) for e in row] for row in qp],
        )
        if (mx, my, mpp, mqp) != shrunk:
            nat_ok = False
            witness = f"point #{idx} under theta_{k} -> 0"
            break
    report.add("naturality-under-base-change", nat_ok, witness)

    # even subgroup: P = Q = 0 points compose blockwise and match the
    # even-quotient presentation's coproduct
    pres = glmn_presentation(m, n)
    quotient = even_quotient(pres)
    even_ok = True
    witness = ""
    for idx in range(min(points, 20)):
        g = sampler.sample_even(2 * idx)
        h = sampler.sample_even(2 * idx + 1)
        product = g * h
        gx, gy, gp, gq = product.decomposition_coords()
        if not (all(e.is_zero() for row in gp for e in row) and all(e.is_zero() for row in gq for e in row)):
            even_ok = False
            witness = f"even product #{idx} left the even subgroup"
            break
        # the quotient coproduct evaluated on the pair (g, h) reproduces g * h
        for name in quotient.gens.names:
            image = quotient.delta[name]
            total = alg.zero()
            for (m1, m2), coeff in image.terms.items():
                left = evaluate_at_point(quotient, SuperPoly.monomial(quotient.gens, m1), g)
                right = evaluate_at_point(quotient, SuperPoly.monomial(quotient.gens, m2), h)
                total = total + (left * right).scale(coeff)
            direct = evaluate_at_point(quotient, SuperPoly.generator(quotient.gens, name), product)
            if total != direct:
                even_ok = False
                witness = f"even-quotient coproduct mismatch at {name}"
                break
        if not even_ok:
            break
    report.add("even-projection-intertwines-even-quotient", even_ok, witness)

    # comodule control: primed coordinates are invariant under left
    # translation by even points; the naive (P, Q) coordinates must fail
    primed_ok = True
    naive_failed = False
    witness = ""
    for idx in range(min(points, 25)):
        point = sampler.sample(idx)
        g = sampler.sample_even(points + idx)
        translated = g * point
        _, _, pp, qp = point.decomposition_coords()
        _, _, tpp, tqp = translated.decomposition_coords()
        if (tpp, tqp) != (pp, qp):
            primed_ok = False
            witness = f"point #{idx}"
        if (translated.block_p(), translated.block_q()) != (point.block_p(), point.block_q()):
            naive_failed = True
    report.add("primed-coordinates-left-invariant", primed_ok, witness)
    # with no odd block or no odd generator P = Q = 0, so nothing can move
    has_odd_part = m * n * k > 0
    report.add(
        "negative-control-naive-coordinates-not-left-invariant",
        naive_failed or not has_odd_part,
        "" if naive_failed or not has_odd_part else "naive coordinates unexpectedly invariant",
    )
    return report
