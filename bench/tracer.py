"""Span tracing around the public functions of ``superalg``.

The tracer wraps each boundary from the benchmark's side, so nothing in the
package changes.  A module-level function is replaced on every binding
across the loaded ``superalg.*`` modules (``cli`` imports many functions by
name); a method is replaced on its class.  ``uninstall`` puts the originals
back.  Spans are kept in memory as ``[name, start, end, parent, op]`` and
written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" names a method
BOUNDARIES = [
    ("core.SuperPoly.mul", "superalg.core", "SuperPoly.__mul__"),
    ("tensor.TensorPoly.mul", "superalg.tensor", "TensorPoly.__mul__"),
    ("linalg.rref", "superalg.linalg", "rref"),
    ("linalg.solve", "superalg.linalg", "solve"),
    ("linalg.nullspace", "superalg.linalg", "nullspace"),
    ("linalg.invert", "superalg.linalg", "invert"),
    ("grassmann.PointSampler.sample", "superalg.grassmann", "PointSampler.sample"),
    ("grassmann.SuperMatrix.mul", "superalg.grassmann", "SuperMatrix.__mul__"),
    ("grassmann.SuperMatrix.inv", "superalg.grassmann", "SuperMatrix.inv"),
    ("grassmann.SuperMatrix.antipode_blocks", "superalg.grassmann", "SuperMatrix.antipode_blocks"),
    ("grassmann.SuperMatrix.decomposition_coords", "superalg.grassmann",
     "SuperMatrix.decomposition_coords"),
    ("grassmann.SuperMatrix.from_decomposition", "superalg.grassmann",
     "SuperMatrix.from_decomposition"),
    ("grassmann.grassmann_matrix_inv", "superalg.grassmann", "grassmann_matrix_inv"),
    # the Grassmann matrix product kernel: it multiplies monomials and reads
    # _MUL_CACHE itself, so gl-points never calls SuperPoly.__mul__
    ("grassmann.poly_mat_mul", "superalg.grassmann", "_poly_mat_mul"),
    ("hopf.HopfPresentation.delta_monomial", "superalg.hopf", "HopfPresentation.delta_monomial"),
    ("hopf.check_hopf_axioms", "superalg.hopf", "check_hopf_axioms"),
    ("hopf.compute_W", "superalg.hopf", "compute_W"),
    ("finite.exterior_finite", "superalg.finite", "exterior_finite"),
    ("finite.dual_hopf", "superalg.finite", "dual_hopf"),
    ("finite.dual_iso_check", "superalg.finite", "dual_iso_check"),
    ("finite.check_finite_hopf_axioms", "superalg.finite", "check_finite_hopf_axioms"),
    ("finite.bosonize", "superalg.finite", "bosonize"),
    ("finite.integral_space", "superalg.finite", "integral_space"),
    ("finite.is_right_integral", "superalg.finite", "is_right_integral"),
    ("hyper.truncated_dual", "superalg.hyper", "truncated_dual"),
    ("hyper.primitives", "superalg.hyper", "primitives"),
    ("hyper.TruncatedDual.check_associative_unital", "superalg.hyper",
     "TruncatedDual.check_associative_unital"),
    ("hyper.TruncatedDual.embeds_in", "superalg.hyper", "TruncatedDual.embeds_in"),
    ("liealg.SuperLieAlgebraData.check_jacobi", "superalg.liealg",
     "SuperLieAlgebraData.check_jacobi"),
    ("hcpair.spo_pair", "superalg.hcpair", "spo_pair"),
    ("hcpair.validate_hcpair", "superalg.hcpair", "validate_hcpair"),
    ("hcpair.build_super_lie", "superalg.hcpair", "build_super_lie"),
    ("hcpair.truncated_envelope", "superalg.hcpair", "truncated_envelope"),
    ("presfile.parse_presentation", "superalg.presfile", "parse_presentation"),
    ("cli.run_exterior_suite", "superalg.cli", "run_exterior_suite"),
    ("cli.run_integrals_suite", "superalg.cli", "run_integrals_suite"),
    ("cli.run_bosonize_suite", "superalg.cli", "run_bosonize_suite"),
    ("cli.run_hy_suite", "superalg.cli", "run_hy_suite"),
    ("cli.run_hcpair_suite", "superalg.cli", "run_hcpair_suite"),
    ("cli.run_envelope_suite", "superalg.cli", "run_envelope_suite"),
]
NAMES = [label for label, _, _ in BOUNDARIES]
OP = "op"  # root span of one op; its parent is -1


class Tracer:
    """Records spans while installed; ``summary`` turns them into layer metrics."""

    def __init__(self):
        self.names = [OP] + NAMES
        self.spans: list[list] = []
        self.rref_max_cells = 0  # largest rows x cols passed to rref
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> list:
        stack = self._stack
        span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn):
        """Call ``fn`` inside the root span of op ``op_id``."""
        self.op = op_id
        span = self._open(0)
        try:
            return fn()
        finally:
            self._close(span)
            self.op = -1

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        opened, closed = self._open, self._close

        def wrapper(*args, **kwargs):
            span = opened(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(span)

        if name != "linalg.rref":
            return wrapper

        def rref_wrapper(matrix, *args, **kwargs):
            cells = len(matrix) * (len(matrix[0]) if matrix else 0)
            self.rref_max_cells = max(self.rref_max_cells, cells)
            return wrapper(matrix, *args, **kwargs)

        return rref_wrapper

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "superalg" or key.startswith("superalg.")
        ]
        for label, modname, attr in BOUNDARIES:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(label, original.__func__))
                else:
                    replacement = self._wrap(label, original)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, replacement)
                continue
            original = getattr(module, attr)
            replacement = self._wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls, busy_s and self_s per boundary, plus ``linalg.rref.max_cells``.

        Busy time counts only spans with no ancestor of the same name, so a
        recursive boundary is not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for idx, (name_id, start, end, parent, _) in enumerate(spans):
            calls[name_id] += 1
            own[name_id] += (end - start) - child_time[idx]
            while parent >= 0 and spans[parent][0] != name_id:
                parent = spans[parent][3]
            if parent < 0:
                busy[name_id] += end - start
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            if name == OP:
                continue
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.busy_s"] = busy[name_id]
            out[f"{name}.self_s"] = own[name_id]
        out["linalg.rref.max_cells"] = self.rref_max_cells
        return out

    def write(self, path: str) -> None:
        """Spans as gzip JSON lines: a header with the names, then one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
