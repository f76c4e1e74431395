"""The package exports only what the library itself uses, or names listed here with a reason.

A name that only tests reach is deleted rather than exported.  "Used"
means read in src/mrcouple code, as a name (a call, a reference, an
annotation) or as an attribute, outside the name's own top-level
definition; mentions in docstrings and comments do not count.

Likewise a defaulted parameter of an exported function is one that some
library call passes, or it is listed here with a reason: a setting only
tests vary is deleted rather than kept.
"""

import ast
import inspect
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

# Defaulted parameters of exported functions that no library call passes, one reason each.
FIXED_BY_DESIGN = {
    "integrate": {
        "history0": "starts multistep schemes from exact history (acceptance test 08)",
    },
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


def unpassed_defaults() -> dict:
    """Per exported function not in UNUSED_BY_DESIGN, its defaulted parameters no call passes.

    A call is any call in src/mrcouple code of a name or attribute with the
    function's name.  It passes the parameters it names by keyword and the
    leading ones it gives by position; a *args or **kwargs passes them all.
    """
    funcs = {
        name: inspect.signature(getattr(mrcouple, name))
        for name in exported_names()
        if inspect.isfunction(getattr(mrcouple, name)) and name not in UNUSED_BY_DESIGN
    }
    passed = {name: set() for name in funcs}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in funcs:
                continue
            params = list(funcs[name].parameters)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            if unpacked:
                passed[name].update(params)
            else:
                passed[name].update(params[: len(node.args)])
                passed[name].update(kw.arg for kw in node.keywords)
    return {
        name: {p.name for p in sig.parameters.values() if p.default is not p.empty} - passed[name]
        for name, sig in funcs.items()
    }


def test_every_defaulted_parameter_is_passed_or_listed():
    unlisted = {
        name: sorted(params - set(FIXED_BY_DESIGN.get(name, {})))
        for name, params in unpassed_defaults().items()
    }
    unlisted = {name: params for name, params in unlisted.items() if params}
    assert not unlisted, f"defaulted parameters that no library call passes: {unlisted}"


def test_listed_parameters_are_defaulted_and_unpassed():
    unpassed = unpassed_defaults()
    stale = sorted(
        f"{name}.{param}"
        for name, params in FIXED_BY_DESIGN.items()
        for param in params
        if param not in unpassed.get(name, set())
    )
    assert not stale, f"listed, but not a defaulted parameter that no library call passes: {stale}"
