"""The I/O layer: one loader and one writer, besides number, integer and count validators.

Every qhydro input (Hamiltonian, run, wave function, contour) enters through
these functions, and every output file (report or profile CSV) leaves
through `write_text`. Each failure is a ValueError that names the offending
key or file, which the CLI reports with exit code 2; `count` and `real`
check the library's own counts and real numbers.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import stat

import numpy as np

# Largest sizes one input may ask for. A Hamiltonian spells out its dim^2
# entries, but a degree, a multiplicity or a node count asks for work the file
# does not show: the divisor of a degree-1024 polynomial takes seconds.
MAX_DIM = 1024
MAX_DEGREE = 1024
MAX_EDGE_SAMPLES = 1024
# Most grid nodes one command may ask for: grid^2 per sphere for vorticity and
# pressure (which samples every eigenstate pair), grid steps for trajectory,
# starting samples of a contour.
MAX_GRID_NODES = 2**18


def load_object(source, what):
    """The JSON object in `source`: a dict, JSON text, or a path to a JSON file.

    A string is JSON text when it starts with "{" or "[", else a path. A file
    that cannot be read (missing, a directory, refused, not UTF-8) and text
    that is not JSON each raise a ValueError that names the file; text given
    as JSON has no file to name.
    """
    if isinstance(source, (str, os.PathLike)):
        text, where = source, ""
        if not (isinstance(source, str) and source.lstrip().startswith(("{", "["))):
            where = f" in {source}"
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError as exc:
                raise ValueError(f"input file not found: {source}") from exc
            except OSError as exc:
                raise ValueError(f"cannot read input file {source}: {exc.strerror}") from exc
            except UnicodeDecodeError as exc:
                raise ValueError(f"cannot read input file {source}: {exc}") from exc
        try:
            source = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON{where} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(source, dict):
        raise ValueError(f"{what} JSON must be an object")
    return source


def write_text(path, text):
    """Write `text` to the file at `path` as UTF-8 with "\\n" line ends, rewriting it in place.

    The file ends up holding exactly these bytes, as with `open(path, "w")`:
    the same inode, links followed, its permissions kept, `0o666 & ~umask`
    when it is created. It is opened without O_TRUNC and truncated after the
    write, at the end of what was written; ext4 then starts no writeback at
    close, as it does for a file truncated to zero and rewritten. Only a
    regular file is truncated: /dev/null and a FIFO refuse it. The write is
    not atomic, nor was open(path, "w"): a crash in the middle can leave a mix
    of old and new bytes. A file that cannot be written raises a ValueError
    that names it.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write output file {path}: {exc.strerror}") from exc


def real_array(name, obj, shape):
    """Nested lists of finite real numbers as a float array of the given shape.

    `shape` is a tuple of lengths; () asks for a single number, returned as a float.
    """
    if shape:
        if not isinstance(obj, list) or len(obj) != shape[0]:
            raise ValueError(f"'{name}' must be a list of {shape[0]} {'numbers' if len(shape) == 1 else 'rows'}")
        rows = [real_array(f"{name}[{i}]", entry, shape[1:]) for i, entry in enumerate(obj)]
        return np.array(rows, dtype=float).reshape(shape)
    value = _as_float(obj)
    if value is None:
        raise ValueError(f"'{name}' is not a number: {obj!r}")
    if not math.isfinite(value):
        raise ValueError(f"'{name}' is not finite: {obj!r}")
    return value


def real(name, value):
    """`value` as a finite float: a real number (a numpy real or a 0-d array of one too), never a bool; else ValueError naming it."""
    number = _as_float(value.item() if isinstance(value, np.ndarray) and value.ndim == 0 else value)
    if number is None:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value}")
    return number


def _as_float(value):
    """A real number as a float, inf for an int beyond the float range; None for a bool or anything not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def integer(name, value, minimum, maximum):
    """`value` as an int in [minimum, maximum]; a whole float such as 3.0 counts."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if whole and not isinstance(value, bool) and minimum <= value <= maximum:
        return int(value)
    raise ValueError(f"'{name}' must be an integer in [{minimum}, {maximum}], got {value!r}")


def count(name, value, least):
    """`value` as an int of at least `least`: an int or a numpy integer, never truncated; else ValueError naming it."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value
