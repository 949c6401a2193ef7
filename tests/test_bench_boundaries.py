"""The names the benchmark reaches into still resolve in the package.

``bench/tracer.py`` wraps each ``BOUNDARIES`` entry, and ``bench/workloads.py``
swaps ``cli.<capture>`` for a recorder; a renamed or deleted name would fail
only there, with an ``AttributeError`` in a traced run.  Both files are read,
not run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
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


@pytest.mark.parametrize("label,modname,attr", _load_tracer().BOUNDARIES)
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
