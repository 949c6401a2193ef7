"""Super Lie algebras given by homogeneous bases and structure constants.

Super Jacobi is certified from a generating set rather than scanned on every
triple (``SuperLieAlgebraData.check_jacobi``).  *Lemma.*  Let the bracket be
parity-graded and super antisymmetric, and let G be a set of basis indices
such that G together with the brackets [g, h], g and h in G, spans the
algebra.  If the Jacobi defect vanishes on every triple (g, b, c) with g in
G, super Jacobi holds.  *Proof.*  By antisymmetry the defect at homogeneous
(x, y, z) is [[x,y],z] - [x,[y,z]] + (-1)^{|x||y|} [y,[x,z]], so it vanishes
for all y and z exactly when ad x is a super-derivation.  These x form a
subspace S.  For homogeneous x and w in S, ad x being a super-derivation
gives ad [x,w] = [ad x, ad w], the super commutator of two
super-derivations, which is one; [x, w] is homogeneous by the grading, so it
lies in S.  Hence S holds G and [G, G], and so everything.  G is the odd
indices together with the even indices that are not pivot columns of one
``rref`` of the [odd, odd] bracket vectors: the echelon rows and the unit
vectors at the other even columns span the even part, so G and [G, G] span
the algebra by construction.  The generator triples run on the bracket
scaled by the lcm L of its denominators, in ``int``: the defect is quadratic
in the bracket, so the scaled defect is L^2 times the true one and vanishes
exactly when it does.  On any defect, and on data whose grading or
antisymmetry fails, the dense ``Fraction`` scan of every triple
(``scan_jacobi``) decides and names the first failing triple, so every
verdict and message is the dense scan's.
"""

from __future__ import annotations

from . import linalg
from .table import Table, Vec, add_into, cleared, times_basis


class StructureError(ValueError):
    """A bracket axiom fails; the witness names the offending tuple."""


def _jacobi_defect(table: Table, parity: list[int], i: int, j: int, k: int) -> Vec:
    """[[i,j],k] + braided cyclic terms in ``table``; zero exactly when Jacobi holds."""
    p = parity
    total = times_basis(table, table.get((i, j), {}), k)
    for (a, b, c), sign_exp in (
        ((j, k, i), p[i] * (p[j] + p[k])),
        ((k, i, j), p[k] * (p[i] + p[j])),
    ):
        add_into(total, times_basis(table, table.get((a, b), {}), c), -1 if sign_exp & 1 else 1)
    return total


class SuperLieAlgebraData:
    """Homogeneous basis with parities and sparse bracket structure constants;
    two are equal when their labels, parities and brackets are."""

    def __init__(self, labels: list[str], parity: list[int],
                 bracket: dict[tuple[int, int], Vec] | None = None) -> None:
        self.labels = labels
        self.parity = parity
        self.bracket = {} if bracket is None else bracket

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.parity, self.bracket) == (other.labels, other.parity,
                                                            other.bracket)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == 0]

    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == 1]

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.bracket.get((i, j), {})

    def _first_ungraded(self) -> tuple[int, int] | None:
        """The first stored pair (i, j) whose bracket has a term of the wrong parity."""
        p = self.parity
        return next(((i, j) for (i, j), vec in self.bracket.items()
                     if any(p[k] != (p[i] + p[j]) & 1 for k in vec)), None)

    def _first_antisymmetry_failure(self) -> tuple[int, int] | None:
        """The first pair (i, j), in lexicographic order, with
        [e_i, e_j] != -(-1)^{|i||j|} [e_j, e_i]; a pair with neither cell
        stored cannot fail."""
        p = self.parity
        for i, j in sorted(set(self.bracket) | {(j, i) for i, j in self.bracket}):
            sign = 1 if p[i] and p[j] else -1
            rhs = {k: sign * c for k, c in self.bracket_basis(j, i).items()}
            if self.bracket_basis(i, j) != {k: c for k, c in rhs.items() if c}:
                return i, j
        return None

    def check_grading(self) -> None:
        pair = self._first_ungraded()
        if pair is not None:
            i, j = pair
            raise StructureError(
                f"bracket [{self.labels[i]}, {self.labels[j]}] is not parity-graded"
            )

    def check_antisymmetry(self) -> None:
        """[u, v] = -(-1)^{|u||v|} [v, u] on all basis pairs."""
        pair = self._first_antisymmetry_failure()
        if pair is not None:
            i, j = pair
            raise StructureError(
                f"super antisymmetry fails at ({self.labels[i]}, {self.labels[j]})"
            )

    def jacobi_generators(self) -> list[int]:
        """The set G of the module docstring: the odd indices, and the even
        indices outside the pivot columns of the [odd, odd] bracket vectors."""
        odds = self.odd_indices()
        _, pivots = linalg.rref([self.bracket_basis(a, b)
                                 for at, a in enumerate(odds) for b in odds[at:]])
        spanned = set(pivots)
        return odds + [i for i in self.even_indices() if i not in spanned]

    def check_jacobi(self) -> None:
        """Super Jacobi on all basis triples, certified from ``jacobi_generators``
        on the integer-scaled bracket when the grading and super antisymmetry
        hold (module docstring); otherwise, or on a defect, ``scan_jacobi``
        decides."""
        n = self.dimension
        if self._first_ungraded() is None and self._first_antisymmetry_failure() is None:
            _, scaled = cleared(self.bracket)
            if not any(_jacobi_defect(scaled, self.parity, g, b, c)
                       for g in self.jacobi_generators() for b in range(n) for c in range(n)):
                return
        self.scan_jacobi()

    def scan_jacobi(self) -> None:
        """The dense scan: super Jacobi on every basis triple in lexicographic
        order, raising with the first failing one and its defect."""
        n = self.dimension
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    defect = _jacobi_defect(self.bracket, self.parity, i, j, k)
                    if defect:
                        raise StructureError(
                            "super Jacobi fails at "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]}): "
                            f"defect {{{', '.join(f'{self.labels[r]}: {c}' for r, c in sorted(defect.items()))}}}"
                        )

    def validate(self) -> None:
        self.check_grading()
        self.check_antisymmetry()
        self.check_jacobi()
