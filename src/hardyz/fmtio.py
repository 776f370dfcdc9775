"""Deterministic text serialization.

Every number printed by the package goes through fmt15, so identical
invocations produce byte-identical files regardless of platform float repr
choices.  Reports reach text through two writers only: to_json, which
renders a dataclass by its fields in declaration order and a complex number
as a quoted fmt15_complex string, and to_csv.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass


def fmt15(x) -> str:
    """15 significant digits, plain ASCII."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.15g}"


def fmt15_complex(z: complex) -> str:
    re, im = fmt15(z.real), fmt15(z.imag)
    sign = "+" if z.imag >= 0 else ""
    return f"{re}{sign}{im}j"


def to_csv(header: tuple[str, ...], rows) -> str:
    """CSV text: the header line, then one line of fmt15 fields per row."""
    lines = [",".join(header)] + [",".join(fmt15(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def to_json(obj, indent: int = 0) -> str:
    """JSON text with fmt15 floats.

    Handles None, bool, int, float, str, complex (as a quoted
    fmt15_complex string), lists and tuples, dicts, and dataclass instances
    (as the dict of their fields, nested dataclasses included).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt15(obj)
    if isinstance(obj, complex):
        return f'"{fmt15_complex(obj)}"'
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if is_dataclass(obj):
        return to_json(asdict(obj), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(to_json(x, indent + 1) for x in obj)
        if len(items) <= 70:
            return f"[{items}]"
        body = ",\n".join(inner + to_json(x, indent + 1) for x in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(f'{inner}"{key}": {to_json(val, indent + 1)}' for key, val in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
