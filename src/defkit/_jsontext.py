"""The indented JSON text defkit writes: results, manifests, reports and
scores.

`indented` returns what `json.dumps(obj, indent=2, sort_keys=True,
default=vars)` returns. An `indent` sends `json` to its pure-Python
encoder, which makes a generator frame per container and several calls
per value; here each value costs one check of its type and one append,
and only containers recurse.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _key(key) -> str:
    """A dict key as `json` writes it: a string, quoted."""
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return _string(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _string(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# How a value of exactly one of these types is written. A subclass of
# str, int or float goes to `_scalar`, which checks in json's order.
_SCALARS = {
    str: _string,
    int: int.__repr__,
    float: _float,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _scalar(o) -> str:
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        return int.__repr__(o)
    return _float(o)


def _write(o, out: list[str], newline: str) -> None:
    """Append the text of o to out, its lines after the first starting
    with `newline` (a line break and o's indent)."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            key = _string(key) if type(key) is str else _key(key)
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                out.append(f"{sep}{key}: ")
                _write(value, out, inner)
            else:
                out.append(f"{sep}{key}: {scalar(value)}")
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(sep)
                _write(item, out, inner)
            else:
                out.append(sep + scalar(item))
            sep = "," + inner
        out.append(newline + "]")
    elif (scalar := _SCALARS.get(type(o))) is not None:
        out.append(scalar(o))
    elif isinstance(o, (str, int, float)):
        out.append(_scalar(o))
    else:
        _write(vars(o), out, newline)  # a record as its fields


def indented(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, default=vars)`: a cycle
    raises RecursionError where `json` raises ValueError."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)
