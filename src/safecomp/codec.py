"""The field reader of the JSON records the CLI reads: the one place that
checks the type of a field of a decoded record, so that a missing field or a
field of the wrong type is a ValueError naming the record and the field."""

from __future__ import annotations

import sys

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
