"""Super Lie algebras given by homogeneous bases and structure constants."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import F1
from .table import Vec, add_into, times_basis


class StructureError(ValueError):
    """A bracket axiom fails; the witness names the offending tuple."""


@dataclass
class SuperLieAlgebraData:
    """Homogeneous basis with parities and sparse bracket structure constants."""

    labels: list[str]
    parity: list[int]
    bracket: dict[tuple[int, int], Vec] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == 0]

    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == 1]

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.bracket.get((i, j), {})

    def check_grading(self) -> None:
        for (i, j), vec in self.bracket.items():
            expected = (self.parity[i] + self.parity[j]) & 1
            for k in vec:
                if self.parity[k] != expected:
                    raise StructureError(
                        f"bracket [{self.labels[i]}, {self.labels[j]}] is not parity-graded"
                    )

    def check_antisymmetry(self) -> None:
        """[u, v] = -(-1)^{|u||v|} [v, u] on all basis pairs."""
        n = self.dimension
        for i in range(n):
            for j in range(n):
                sign = -F1 if not (self.parity[i] and self.parity[j]) else F1
                lhs = self.bracket_basis(i, j)
                rhs = {k: sign * c for k, c in self.bracket_basis(j, i).items()}
                if lhs != {k: c for k, c in rhs.items() if c}:
                    raise StructureError(
                        f"super antisymmetry fails at ({self.labels[i]}, {self.labels[j]})"
                    )

    def jacobi_defect(self, i: int, j: int, k: int) -> Vec:
        """[[i,j],k] + braided cyclic terms; zero exactly when Jacobi holds."""
        p, bracket = self.parity, self.bracket
        total = times_basis(bracket, self.bracket_basis(i, j), k)
        for (a, b, c), sign_exp in (
            ((j, k, i), p[i] * (p[j] + p[k])),
            ((k, i, j), p[k] * (p[i] + p[j])),
        ):
            sign = -F1 if sign_exp & 1 else F1
            add_into(total, times_basis(bracket, self.bracket_basis(a, b), c), sign)
        return total

    def check_jacobi(self) -> None:
        """Exhaustive super Jacobi over all basis triples."""
        n = self.dimension
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    defect = self.jacobi_defect(i, j, k)
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
