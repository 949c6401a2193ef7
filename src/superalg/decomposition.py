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
from .hopf import HopfPresentation, even_quotient, glmn_presentation, glmn_entry_name
from .report import AxiomReport


def point_images(pres: HopfPresentation, point: SuperMatrix) -> dict[str, SuperPoly]:
    """Generator images of the algebra map 'evaluate at this point'.

    Identity-shifted generators evaluate to entry minus the identity matrix.
    """
    m, n = point.m, point.n
    images: dict[str, SuperPoly] = {}
    for a, row in enumerate(point.rows, 1):
        for b, entry in enumerate(row, 1):
            name = glmn_entry_name(m, n, a, b)
            if name in pres.gens:
                images[name] = entry - point.alg.one() if a == b else entry
    return images


def decomposition_check(m: int, n: int, k: int, points: int, seed: int) -> AxiomReport:
    """Run the full pointwise decomposition suite on seeded samples."""
    report = AxiomReport()
    sampler = PointSampler(m, n, k, seed)
    alg = sampler.alg
    ident = SuperMatrix.identity(m, n, alg)

    x, y, pprime, qprime = ident.decomposition_coords()
    ok = all(e.is_zero() for block in (pprime, qprime) for row in block for e in row)
    ok = ok and SuperMatrix.from_decomposition(x, y, pprime, qprime, alg) == ident
    report.add("identity-maps-to-(identity,0,0)", ok)

    # the sampled points and their coordinates, shared by every scan below
    samples = [sampler.sample(idx) for idx in range(points)]
    coords = [point.decomposition_coords() for point in samples]
    report.first(f"round-trip[{points} points]", (
        f"point #{idx}" for idx, (point, (x, y, pp, qp)) in enumerate(zip(samples, coords))
        if SuperMatrix.from_decomposition(x, y, pp, qp, alg) != point
    ))
    report.add("odd-coordinates-are-odd", all(
        e.is_zero() or e.parity_of() == "odd"
        for _, _, pp, qp in coords for block in (pp, qp) for row in block for e in row
    ))

    # naturality: the coordinates commute with a base change R -> R'
    smaller = GrassmannAlgebra(max(k - 1, 0))
    shrink = truncate_map(alg, smaller)

    def naturality_failures():
        for idx in range(min(points, 25)):
            moved = samples[idx].map_entries(shrink, smaller)
            if not moved.is_gl_point():
                continue
            shrunk = tuple([[shrink(e) for e in row] for row in block] for block in coords[idx])
            if moved.decomposition_coords() != shrunk:
                yield f"point #{idx} under theta_{k} -> 0"

    report.first("naturality-under-base-change", naturality_failures())

    # even subgroup: P = Q = 0 points compose blockwise and match the
    # even-quotient presentation's coproduct
    pres = glmn_presentation(m, n)
    quotient = even_quotient(pres)
    one = alg.one()

    def even_failures():
        for idx in range(min(points, 20)):
            g = sampler.sample_even(2 * idx)
            h = sampler.sample_even(2 * idx + 1)
            product = g * h
            _, _, gp, gq = product.decomposition_coords()
            if not all(e.is_zero() for block in (gp, gq) for row in block for e in row):
                yield f"even product #{idx} left the even subgroup"
            # the quotient coproduct evaluated on the pair (g, h) reproduces g * h
            at_g, at_h, at_gh = (point_images(quotient, point) for point in (g, h, product))
            for name in quotient.gens.names:
                total = alg.zero()
                for (m1, m2), coeff in quotient.delta[name].terms.items():
                    left = evaluate_hom(SuperPoly.monomial(quotient.gens, m1), at_g, one)
                    right = evaluate_hom(SuperPoly.monomial(quotient.gens, m2), at_h, one)
                    total = total + (left * right).scale(coeff)
                generator = SuperPoly.generator(quotient.gens, name)
                if total != evaluate_hom(generator, at_gh, one):
                    yield f"even-quotient coproduct mismatch at {name}"

    report.first("even-projection-intertwines-even-quotient", even_failures())

    # comodule control: primed coordinates are invariant under left
    # translation by even points; the naive (P, Q) coordinates must fail
    translated = [
        sampler.sample_even(points + idx) * samples[idx] for idx in range(min(points, 25))
    ]
    report.first("primed-coordinates-left-invariant", (
        f"point #{idx}" for idx, moved in enumerate(translated)
        if moved.decomposition_coords()[2:] != coords[idx][2:]
    ))
    # with no odd block or no odd generator P = Q = 0, so nothing can move and
    # the control, which could not fail, is not reported
    if m * n * k:
        naive_failed = any(
            (moved.block_p(), moved.block_q()) != (samples[idx].block_p(), samples[idx].block_q())
            for idx, moved in enumerate(translated)
        )
        report.add("negative-control-naive-coordinates-not-left-invariant", naive_failed,
                   "naive coordinates unexpectedly invariant")
    return report
