"""Layering: the symbolic Hopf layer does not reach up into the point layers,
the point layer imports only its kernels, the hyperalgebra does its
monomial arithmetic through ``superalg.core``, and no module imports
``dataclasses``.

``superalg.hopf`` checks a presentation symbolically and, for GL(m|n), on the
points a sampler hands it; it uses those points only through their methods.
The modules are read, not run: every ``import`` and ``from ... import`` node at
any scope, a function body included, is resolved to the ``superalg`` modules
it names, and every call node is resolved to the name it calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "superalg"


def _imported_modules(source: str) -> set[str]:
    """The ``superalg`` submodules that the module text ``source`` imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("superalg."))
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("superalg" if node.level == 1 else "", node.module)))
            if module == "superalg":
                found.update(alias.name for alias in node.names)
            elif module.startswith("superalg."):
                found.add(module.split(".")[1])
    return found


@pytest.mark.parametrize("upper", ["grassmann", "decomposition", "finite", "hyper", "cli"])
def test_hopf_imports_no_point_or_driver_module(upper):
    assert upper not in _imported_modules((SRC / "hopf.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", ["core", "grassmann", "linalg", "table"])
def test_point_layer_imports_only_its_kernels(module):
    # so ``import superalg.grassmann`` loads these four modules and no other;
    # the one exception is the function-level ``from .parsing import
    # format_poly`` in ``core.SuperPoly.__repr__``, run when a polynomial is printed
    allowed = {"core", "linalg", "table"} | ({"parsing"} if module == "core" else set())
    assert _imported_modules((SRC / f"{module}.py").read_text(encoding="utf-8")) <= allowed


def test_the_import_scan_sees_every_import_form_at_any_scope():
    source = (
        "from .core import F0\n"
        "import superalg.finite\n"
        "from superalg import hyper\n"
        "from superalg.cli import main\n"
        "def f():\n"
        "    from . import decomposition\n"
        "    class C:\n"
        "        from .grassmann import SuperMatrix\n"
    )
    assert _imported_modules(source) == {"core", "finite", "hyper", "cli", "decomposition",
                                         "grassmann"}


def _imported_roots(source: str) -> set[str]:
    """The top-level names of every module that ``source`` imports anywhere, absolute
    imports only (``import a.b`` and ``from a.b import c`` both give ``a``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # ``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and ``tokenize``: about
    # 10 ms of every uncached ``import superalg.cli``
    assert "dataclasses" not in _imported_roots(path.read_text(encoding="utf-8"))


def test_the_root_scan_sees_every_absolute_import_at_any_scope():
    source = (
        "import os.path, json\n"
        "from dataclasses import dataclass\n"
        "from . import core\n"
        "def f():\n"
        "    import argparse as ap\n"
        "    class C:\n"
        "        from collections.abc import Iterable\n"
    )
    assert _imported_roots(source) == {"os", "json", "dataclasses", "argparse", "collections"}


def _called_names(source: str) -> set[str]:
    """The names that the module text ``source`` calls, bare or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.add(func.id)
            elif isinstance(func, ast.Attribute):
                found.add(func.attr)
    return found


def test_hyper_builds_no_monomial_by_hand():
    # products and splits of basis monomials come from core.mul_monomials
    assert "SuperMonomial" not in _called_names((SRC / "hyper.py").read_text(encoding="utf-8"))


def test_the_call_scan_sees_bare_and_attribute_calls_at_any_scope():
    source = (
        "x = SuperMonomial((1,), 0)\n"
        "def f(m):\n"
        "    return [core.mul_monomials(m, m) for _ in range(2)]\n"
    )
    assert _called_names(source) == {"SuperMonomial", "mul_monomials", "range"}
