"""Machine-readable verification reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .hopf import AxiomReport

ENGINE_VERSION = "0.1.0"


@dataclass
class Report:
    """Suite outcome: config echo, per-check status, witnesses, data, timings.

    Identical config and seed produce identical reports apart from the
    ``timings`` block; every failure carries a serialised witness.  ``data``
    holds computed results that are not checks (exported structures,
    dimensions) and is emitted only when non-empty.
    """

    suite: str
    config: dict
    checks: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    engine_version: str = ENGINE_VERSION

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def add_check(self, name: str, passed: bool, witness: str = "") -> None:
        entry = {"name": name, "status": "pass" if passed else "fail"}
        if witness and not passed:
            entry["witness"] = witness
        self.checks.append(entry)

    def extend(self, axioms: AxiomReport, prefix: str = "") -> None:
        for check in axioms.checks:
            entry = check.as_dict()
            if prefix:
                entry["name"] = f"{prefix}:{entry['name']}"
            self.checks.append(entry)

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "engine_version": self.engine_version,
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
