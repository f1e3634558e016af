"""Public names: every __all__ entry exists once, the package re-exports only public names, and bad arguments are refused by name."""

import ast
import importlib
import pathlib

import numpy as np
import pytest

import qhydro
from qhydro.hilbert import HermitianOperator, StateVector, evolve
from qhydro.projective import project_tangent
from qhydro.spin import CircleContour, PolygonContour, SpinWaveFunction, SU2Element, contour_from_json, wavefunction_from_json

MODULES = ["cli", "fluid", "hilbert", "jsonio", "projective", "riemann", "spin"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_without_duplicates(name):
    module = importlib.import_module(f"qhydro.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_imports_only_names_in_their_module_all():
    tree = ast.parse(pathlib.Path(qhydro.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if name not in getattr(importlib.import_module(f"qhydro.{module}"), "__all__", ())
    ]
    assert missing == []


@pytest.mark.parametrize(
    "call, needle",
    [
        (lambda: StateVector(np.ones((2, 2))), "state vector must be 1-d with dimension >= 2, got shape (2, 2)"),
        (lambda: HermitianOperator(np.ones((2, 3))), "operator must be square with dimension >= 2, got shape (2, 3)"),
        (lambda: HermitianOperator([[0.0, np.inf], [np.inf, 0.0]]), "operator has non-finite entries"),
        (lambda: evolve(HermitianOperator(np.eye(3)), StateVector.basis(2, 0), 1.0), "dimension mismatch: operator 3, state 2"),
        (lambda: SpinWaveFunction(-1, [1.0]), "two_s must be a nonnegative integer, got -1"),
        (lambda: SpinWaveFunction(2, [1.0, 0.0]), "need 3 coefficients for two_s=2, got shape (2,)"),
        (lambda: SpinWaveFunction(1, [1.0, np.nan]), "coefficients must be finite"),
        (lambda: SU2Element(np.eye(3)), "expected a 2x2 matrix, got shape (3, 3)"),
        (lambda: SU2Element(np.diag([1.0, -1.0])), "matrix does not have unit determinant"),
        (lambda: PolygonContour((0.0, 1.0)), "polygon needs at least 3 vertices, got 2"),
        (lambda: PolygonContour((0.0, 1.0, complex(np.inf, 0.0))), "vertex 2 must be finite, got (inf+0j)"),
        (lambda: CircleContour(complex(np.nan, 0.0), 1.0), "center must be finite, got (nan+0j)"),
        (lambda: wavefunction_from_json({"roots": {"re": 0.5}}), "'roots' must be a list of [re, im, mult] triples"),
        (lambda: contour_from_json({"polygon": {"vertices": [[0, 0], [1, 0]]}}), "'polygon.vertices' must list at least 3 [re, im] pairs"),
        (lambda: project_tangent([0.0, 1.0], [1.0, 0.0], 0), "curve leaves chart 0: zero pivot amplitude"),
    ],
)
def test_bad_arguments_raise_a_value_error_that_names_them(call, needle):
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError and str(refused.value) == needle
