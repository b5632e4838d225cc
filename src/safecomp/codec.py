"""The readers shared by the files the CLI reads. json_field is the one place
that checks the type of a field of a decoded JSON record, so that a missing
field or a field of the wrong type is a ValueError naming the record and the
field. read_numbers reads a block of comma-separated numbers in one numpy pass
for the dataset CSV and the network file."""

from __future__ import annotations

import sys

import numpy as np

NAME = (str, float)  # the kind of a state, a port value or a component name
# per kind: the exact types json.loads gives it (so a bool is of no kind), its
# noun and its plural
_KINDS = {str: ({str}, "a string", "strings"), int: ({int}, "an integer", "integers"),
          float: ({int, float}, "a number", "numbers"), list: ({list}, "a list", "lists"),
          dict: ({dict}, "an object", "objects"),
          NAME: ({str, int, float}, "a string or number", "strings or numbers")}
_REQUIRED = object()


def json_field(obj: dict, key: str, kind, where: str, *, items=None, each=None,
               default=_REQUIRED, single: bool = False):
    """obj[key], checked to be of kind and, for a list or an object, each of its
    items (an object's values) of kind items, and each of theirs of kind each.
    A missing or null field reads as default if one is given; with single, one
    item stands for a list of it. `where` names the record in an error, "" the
    top level of the file."""
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise ValueError(f"{where or 'the top level'} has no {key!r}")
    if single and type(value) in _KINDS[items][0]:
        value = [value]
    types, deeper = {type(value)}, None
    ok = types <= _KINDS[kind][0]
    if ok and items is not None:
        inner = value.values() if kind is dict else value
        types = set(map(type, inner))  # one pass
        ok = types <= _KINDS[items][0]
        if ok and each is not None:  # and one over the items' own items
            types = {type(v) for c in inner for v in (c.values() if items is dict else c)}
            ok, deeper = types <= _KINDS[each][0], each
    if not ok:
        noun = " of ".join([_KINDS[kind][1], *(_KINDS[k][2] for k in (items, deeper) if k)])
        raise ValueError(f"{where} {key} must be {noun}, got {value!r}".lstrip())
    if int in types and float in (kind, items):
        for v in (value,) if kind is float else value:
            if type(v) is int and not abs(v) <= sys.float_info.max:
                raise ValueError(f"{where} {key} {v!r} lies beyond float range".lstrip())
    return value


# characters np.loadtxt strips from around a number and float() does not
_BLANK_TO_NUMPY_ONLY = "\x1c\x1d\x1e\x1f"


def read_numbers(rows: list[str], width: int) -> np.ndarray | None:
    """The rows, each of width comma-separated finite numbers, as one
    (len(rows), width) float64 array, read in one numpy pass bit for bit as
    float() reads each cell. None where that pass cannot tell: no rows, an empty
    row, a cell numpy rejects, a row of another width or a non-finite number.
    The caller's row loop reads the rows then, and its error names the row."""
    text = "".join(rows)
    if not rows or not all(rows) or any(c in text for c in _BLANK_TO_NUMPY_ONLY):
        return None
    try:
        block = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (len(rows), width) and np.isfinite(block).all() else None
