"""The package namespace: each exported name is the object its submodule
defines, and a submodule is imported only when one of its names is first used."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import import_module

import pytest

import superalg

from conftest import child_env

# the names ``superalg/__init__.py`` imported eagerly before the namespace
# became lazy, by the submodule that defines each
EXPORTED = {
    "core": ["EVEN", "ODD", "GeneratorSet", "GeneratorSetMismatch", "Scalar", "SuperMonomial",
             "SuperPoly", "UnknownGenerator", "evaluate_hom"],
    "tensor": ["TensorPoly"],
    "parsing": ["ParseError", "format_poly", "parse_generator_set", "parse_poly"],
    "grassmann": ["GrassmannAlgebra", "NotAPoint", "NotInvertible", "PointSampler",
                  "SuperMatrix", "invert_element"],
    "hopf": ["HopfPresentation", "OddCotangent", "PresentationError", "additive_presentation",
             "check_hopf_axioms", "compute_W", "even_quotient", "exterior_hopf",
             "glmn_presentation"],
    "finite": ["FiniteDimHopf", "IntegralSpace", "bosonize", "check_finite_hopf_axioms",
               "dual_hopf", "dual_iso_check", "exterior_finite", "finite_from_presentation",
               "integral_space"],
    "hyper": ["TruncatedDual", "primitives", "truncated_dual"],
    "liealg": ["StructureError", "SuperLieAlgebraData"],
    "hcpair": ["TruncatedEnvelope", "abelian_pair", "build_super_lie", "sp_basis", "spo_pair",
               "truncated_envelope", "validate_hcpair"],
    "decomposition": ["decomposition_check"],
    "presfile": ["load_presentation", "parse_presentation", "print_presentation"],
    "report": ["AxiomReport", "Report"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_every_exported_name_is_listed_once():
    assert len(NAMES) == 56
    assert sorted(superalg.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES)
def test_exported_name_is_its_submodules_object(module, name):
    assert getattr(superalg, name) is getattr(import_module(f"superalg.{module}"), name)


@pytest.mark.parametrize("module", [*EXPORTED, "linalg", "table", "cli"])
def test_bare_submodule_name_is_the_submodule(module):
    assert getattr(superalg, module) is import_module(f"superalg.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'SuperMatrx'"):
        superalg.SuperMatrx
    with pytest.raises(ImportError):
        from superalg import SuperMatrx  # noqa: F401
    assert not hasattr(superalg, "__wrapped__")


def test_dir_lists_every_exported_name():
    listed = set(dir(superalg))
    assert set(superalg.__all__) <= listed and "__version__" in listed


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from superalg import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(import_module(f"superalg.{module}"), name)


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, the package on its path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), timeout=60)


def _modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    done = _fresh("-c", f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))")
    done.check_returncode()
    return set(json.loads(done.stdout))


def _loaded_after(statement: str) -> list[str]:
    """The ``superalg`` submodules a fresh interpreter holds after ``statement``."""
    return sorted(m for m in _modules_after(statement) if m.startswith("superalg."))


def test_package_import_loads_no_submodule():
    assert _loaded_after("import superalg") == []


@pytest.mark.parametrize("statement", ["import superalg.grassmann",
                                       "from superalg import SuperMatrix"])
def test_point_layer_loads_only_its_own_modules(statement):
    assert _loaded_after(statement) == [
        "superalg.core", "superalg.grassmann", "superalg.linalg", "superalg.table",
    ]


def test_cli_import_loads_no_point_layer_argparse_or_dataclasses():
    # the Hopf-side suites run without them; ``dataclasses`` would bring ``inspect``
    deferred = {"superalg.grassmann", "superalg.decomposition", "dataclasses", "inspect",
                "argparse"}
    assert not _modules_after("import superalg.cli") & deferred


def test_cli_names_the_point_layer_classes():
    from superalg import cli, grassmann

    assert cli.SuperMatrix is grassmann.SuperMatrix
    assert cli.PointSampler is grassmann.PointSampler
    with pytest.raises(AttributeError, match="no attribute 'SuperMatrx'"):
        cli.SuperMatrx


@pytest.mark.parametrize("command, suite", [(["verify", "gl"], "verify-gl"),
                                            (["decompose"], "decompose")])
def test_point_suites_run_in_a_fresh_interpreter(command, suite):
    # ``cli`` starts without the point layer and imports it when the suite runs
    done = _fresh("-m", "superalg", *command, "--m", "1", "--n", "1", "--thetas", "3",
                  "--points", "6", "--seed", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"suite {suite}: PASS\n")
