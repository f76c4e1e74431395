"""The package exports only what the library itself uses, or names listed here with a reason.

A name that only tests reach is deleted rather than exported.  "Used"
means read in src/mrcouple code, as a name (a call, a reference, an
annotation) or as an attribute, outside the name's own top-level
definition; mentions in docstrings and comments do not count.
"""

import ast
from pathlib import Path

import mrcouple

SRC = Path(mrcouple.__file__).resolve().parent

# Exported although no library code reads them, one reason each.
UNUSED_BY_DESIGN = {
    # The public entry point for matrix-defined systems; the CLI builds from meshes.
    "from_matrices": "constructor for toy and external systems",
    # A test oracle: the flux rows' projected traces, read back from a solved window.
    "window_traces": "test oracle of the flux rows",
    # perfbench/probes.py wraps these as owner.__dict__[name]; they go with those probes.
    "solve_window_fixed_point": "wrapped by the benchmark probes",
    "solve_substep": "wrapped by the benchmark probes",
}


def exported_names() -> list:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def used_names() -> set:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_export_is_used_or_listed():
    unused = sorted(set(exported_names()) - used_names() - set(UNUSED_BY_DESIGN))
    assert not unused, f"exported but used by no library code: {unused}"


def test_listed_names_are_exported_and_unused():
    exported, used = set(exported_names()), used_names()
    stale = sorted(name for name in UNUSED_BY_DESIGN if name not in exported or name in used)
    assert not stale, f"listed, but not exported or used by library code: {stale}"
