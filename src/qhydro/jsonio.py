"""The JSON input layer: one loader, one number validator, one integer validator.

Every qhydro input (Hamiltonian, run, wave function, contour) enters through
these functions. Each failure is a ValueError that names the offending key,
which the CLI reports with exit code 2.
"""

from __future__ import annotations

import json
import math
import numbers
import os

import numpy as np

# Largest sizes one input may ask for. A Hamiltonian spells out its dim^2
# entries, but a degree, a multiplicity or a node count asks for work the file
# does not show: the divisor of a degree-1024 polynomial takes seconds, and a
# Gauss-Legendre rule solves an n x n eigenproblem (0.15 s at n = 1024, eight
# times that per doubling).
MAX_DIM = 1024
MAX_DEGREE = 1024
MAX_GAUSS_NODES = 1024
# Most grid nodes one command may ask for: grid^2 per sphere for vorticity and
# pressure (which samples every eigenstate pair), grid steps for trajectory,
# quadrature nodes for a contour.
MAX_GRID_NODES = 2**18


def load_object(source, what):
    """The JSON object in `source`: a dict, JSON text, or a path to a JSON file.

    A string is JSON text when it starts with "{" or "[", else a path.
    """
    if isinstance(source, (str, os.PathLike)):
        text = source
        if not (isinstance(source, str) and source.lstrip().startswith(("{", "["))):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        source = json.loads(text)
    if not isinstance(source, dict):
        raise ValueError(f"{what} JSON must be an object")
    return source


def real_array(name, obj, shape):
    """Nested lists of finite real numbers as a float array of the given shape.

    `shape` is a tuple of lengths; () asks for a single number, returned as a float.
    """
    if shape:
        if not isinstance(obj, list) or len(obj) != shape[0]:
            raise ValueError(f"'{name}' must be a list of {shape[0]} {'numbers' if len(shape) == 1 else 'rows'}")
        rows = [real_array(f"{name}[{i}]", entry, shape[1:]) for i, entry in enumerate(obj)]
        return np.array(rows, dtype=float).reshape(shape)
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise ValueError(f"'{name}' is not a number: {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"'{name}' is not finite: {obj!r}")
    return value


def integer(name, value, minimum, maximum):
    """`value` as an int in [minimum, maximum]; a whole float such as 3.0 counts."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if whole and not isinstance(value, bool) and minimum <= value <= maximum:
        return int(value)
    raise ValueError(f"'{name}' must be an integer in [{minimum}, {maximum}], got {value!r}")
