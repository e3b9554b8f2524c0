#!/usr/bin/env python3
"""Count the independently settable values of one checkout's package:

    python3 scripts/count_settings.py --src DIR/src

It walks ``DIR/src/dancegen/*.py`` with ``ast``, importing nothing, so it
runs on any commit. Four kinds of value are counted:

- parameters with a default value, positional or keyword-only, of every
  function and method;
- fields of every ``@dataclass`` class;
- pipeline config keys: the field names that ``config.py`` hands to
  ``_section(...)``, plus the fields of each ``@dataclass`` class whose name
  ends in ``Section`` (these fields are also dataclass fields, as each
  config key is also a stage field);
- ``@classmethod`` constructors, each an alternative way to build an
  object.

It prints one line per kind and then the sum, ``a + b + c + d = total``.
A change that removes settings should lower the total and add to no kind.
"""

import argparse
import ast
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _field_names(node: ast.ClassDef) -> list:
    return [s.target.id for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _section_keys(call: ast.Call) -> list:
    """The field-name strings of a ``_section(name, (cls, (names...)), ...)`` call."""
    keys = []
    for source in call.args[1:]:
        if isinstance(source, ast.Tuple) and len(source.elts) == 2:
            keys += [e.value for e in ast.walk(source.elts[1])
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return keys


def count(package: Path) -> dict:
    counts = {"parameters with defaults": 0, "dataclass fields": 0,
              "config keys": 0, "classmethod constructors": 0}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                counts["parameters with defaults"] += (
                    len(args.defaults) + sum(d is not None for d in args.kw_defaults))
                counts["classmethod constructors"] += any(
                    isinstance(d, ast.Name) and d.id == "classmethod"
                    for d in node.decorator_list)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = _field_names(node)
                counts["dataclass fields"] += len(fields)
                if path.name == "config.py" and node.name.endswith("Section"):
                    counts["config keys"] += len(fields)
            elif (path.name == "config.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "_section"):
                counts["config keys"] += len(_section_keys(node))
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the checkout's src/ directory")
    args = parser.parse_args()
    package = Path(args.src) / "dancegen"
    if not package.is_dir():
        parser.error(f"{package} is not a directory")
    counts = count(package)
    for kind, value in counts.items():
        print(f"{kind}: {value}")
    print(" + ".join(map(str, counts.values())), "=", sum(counts.values()))


if __name__ == "__main__":
    main()
