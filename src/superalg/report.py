"""The check ledger and machine-readable verification reports.

Every check is one ``{"name", "status"[, "witness"]}`` entry, exactly as it
is written to JSON; a ``witness`` is kept only on a failing entry.  A check
that scans cases is recorded by ``first``: it fails with the first witness
of its scan, computing no later case, and passes when the scan yields none.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

ENGINE_VERSION = "0.1.0"


class AxiomReport:
    """An ordered list of named checks with their status and witness."""

    def __init__(self, checks: list[dict] | None = None) -> None:
        self.checks = [] if checks is None else checks

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        entry = {"name": name, "status": "pass" if passed else "fail"}
        if witness and not passed:
            entry["witness"] = witness
        self.checks.append(entry)

    def first(self, name: str, witnesses: Iterable[str]) -> None:
        """Fail ``name`` with the first witness ``witnesses`` yields; pass it if none."""
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness or "")

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def failures(self) -> list[dict]:
        return [c for c in self.checks if c["status"] == "fail"]

    def extend(self, other: AxiomReport, prefix: str = "") -> None:
        """Append ``other``'s checks, each name prefixed by ``prefix:``."""
        for check in other.checks:
            self.checks.append({**check, "name": f"{prefix}:{check['name']}"} if prefix else check)


class Report(AxiomReport):
    """Suite outcome: config echo, per-check status, witnesses, data, timings.

    Identical config and seed produce identical reports apart from the
    ``timings`` block; every failure carries a serialised witness.  ``data``
    holds computed results that are not checks (exported structures,
    dimensions) and is emitted only when non-empty.
    """

    def __init__(self, checks: list[dict] | None = None, *, suite: str, config: dict,
                 timings: dict | None = None, data: dict | None = None) -> None:
        super().__init__(checks)
        self.suite = suite
        self.config = config
        self.timings = {} if timings is None else timings
        self.data = {} if data is None else data

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "engine_version": ENGINE_VERSION,
            "config": self.config,
            "ok": self.ok,
            "checks": self.checks,
            "timings": self.timings,
        }
        if self.data:
            out["data"] = self.data
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str)

    def summary_lines(self) -> list[str]:
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"]
        for check in self.checks:
            mark = "ok  " if check["status"] == "pass" else "FAIL"
            line = f"  [{mark}] {check['name']}"
            if check.get("witness"):
                line += f"  <- {check['witness']}"
            lines.append(line)
        return lines
