"""The names the benchmark reaches into still resolve in the package.

``bench/tracer.py`` wraps each ``BOUNDARIES`` entry, ``bench/workloads.py``
swaps ``cli.<capture>`` for a recorder, and the ``bench/*.py`` files import
names from ``superalg`` and read attributes off its modules (``cli.run_*_suite``,
``hyper.truncated_dual``, ``core._MUL_CACHE``); a renamed or deleted name would
fail only there, with an ``ImportError`` or ``AttributeError`` in a bench run.
The files are read, not run, except for ``bench/workloads.py``, whose ops are
run at their tiny size so that each gate, and each ``cli`` capture the gates
read, is checked here too, and ``bench/tracer.py``, under which the tiny
``lie-structures`` ops must reach each ``hcpair`` boundary: a boundary that
the suites stop calling (say, by inlining it) would read zero in its
per-layer metric.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _captured_cli_names() -> list[str]:
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return sorted({
        node.value.value for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "capture"
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    })


def _superalg_uses() -> list[tuple[str, str]]:
    """(module, name) for each name a ``bench/*.py`` file imports from ``superalg``,
    and for each attribute it reads off a ``superalg`` module imported by name."""
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "superalg":
                for alias in node.names:
                    uses.add((node.module, alias.name))
                    if node.module == "superalg" and importlib.util.find_spec(f"superalg.{alias.name}"):
                        modules[alias.asname or alias.name] = f"superalg.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                uses.add((modules[node.value.id], node.attr))
    return sorted(uses)


@pytest.mark.parametrize("label,modname,attr", _load("tracer").BOUNDARIES)
def test_traced_boundary_resolves(label, modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        # the tracer replaces the method in the class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_captured_cli_names_resolve():
    from superalg import cli

    names = _captured_cli_names()
    assert {"compute_W", "integral_space", "bosonize"} <= set(names)
    for name in names:
        assert callable(getattr(cli, name)), name


def test_bench_reads_the_suites_the_dual_and_the_cache():
    uses = set(_superalg_uses())
    assert {("superalg.cli", "run_hcpair_suite"), ("superalg.hyper", "truncated_dual"),
            ("superalg.core", "_MUL_CACHE")} <= uses


@pytest.mark.parametrize("modname,name", _superalg_uses())
def test_bench_superalg_name_resolves(modname, name):
    module = importlib.import_module(modname)
    if not hasattr(module, name):
        importlib.import_module(f"{modname}.{name}")  # a submodule; raises when it is gone


@pytest.mark.parametrize("workload", _load("workloads").WORKLOADS)
def test_tiny_workload_ops_pass_their_gates(workload):
    # a suite that stops calling a captured function leaves its value at None
    workloads = _load("workloads")
    for op in workloads.build(workload, 1, 0, "tiny"):
        miss = workloads.gate(op.call(), op.expected)
        assert miss is None, f"{op.name}: {miss}"


HCPAIR_BOUNDARIES = ["hcpair.spo_pair", "hcpair.validate_hcpair", "hcpair.build_super_lie",
                     "hcpair.truncated_envelope"]


def test_tiny_lie_structures_ops_reach_each_hcpair_boundary():
    workloads, tracer = _load("workloads"), _load("tracer").Tracer()
    ops = workloads.build("lie-structures", 1, 0, "tiny")
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            tracer.run_op(op_id, op.call)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert {name: summary[f"{name}.calls"] > 0 for name in HCPAIR_BOUNDARIES} == \
        dict.fromkeys(HCPAIR_BOUNDARIES, True)
