"""Every defaulted parameter of the package is set by at least one call,
and all but a listed few by a call outside the tests.

An AST census: for each ``def`` in ``src/geomode`` it lists the
parameters that carry a default, then checks every call of that name in
``src/``, ``tests/`` and ``bench/``.  A parameter counts as used when a
call passes it by keyword or by position, or passes ``*args`` /
``**kwargs`` that may carry it.  A class's ``__init__`` is called by the
class name.  A default that no call overrides is a configuration nobody
runs; it belongs in a module constant instead.  A default that only the
tests override is a second way in to a result that the package itself
never takes; :data:`TEST_ONLY_DEFAULTS` lists the ones kept, with why.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geomode"
CALLERS = ("src", "tests", "bench")
PRODUCTION_CALLERS = ("src", "bench")

#: Defaults whose other values come only from the tests, and why each stays.
TEST_ONLY_DEFAULTS = {
    "enumeration.enumerate_holonomic(resume_token)":
        "the resume point of a capped census; ROADMAP item 16 keeps the signature",
    "experiment.generate_state(dtype)": "numpy's ISeedSequence.generate_state signature",
    "holonomy.k_two_particle(particle)": "oracle input: the statistics of the closed form",
    "holonomy.k_n_boson(h_vac)": "oracle input: the vacuum energy of the closed form",
    "holonomy.k_matrix_lifted(grid)": "oracle input: the grid the tests compare K on",
}


def _defaulted_params():
    """(module, function name, parameter, position or None) per default.

    The position counts from the first argument a caller passes, so a
    method's ``self`` is not counted; keyword-only parameters have None.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for parent in ast.walk(tree):
            for fn in ast.iter_child_nodes(parent):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                is_method = isinstance(parent, ast.ClassDef)
                name = parent.name if is_method and fn.name == "__init__" else fn.name
                args = fn.args
                positional = args.posonlyargs + args.args
                skip = 1 if is_method and not _is_static(fn) else 0
                first_default = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first_default:], start=first_default):
                    found.append((path.stem, name, arg.arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((path.stem, name, arg.arg, None))
    return found


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _calls(callers):
    """Call name -> list of (positional count, keywords, has *args, has
    **kwargs) over the calls in the ``callers`` top-level directories."""
    calls = defaultdict(list)
    for top in callers:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                double_star = any(k.arg is None for k in node.keywords)
                calls[name].append((len(node.args), keywords, star, double_star))
    return calls


def unset_defaults(callers=CALLERS):
    """``module.function(parameter)`` of each default that no call in
    ``callers`` overrides."""
    calls = _calls(callers)
    unset = []
    for module, name, param, pos in _defaulted_params():
        used = any(
            param in keywords or double_star or star
            or (pos is not None and n_pos > pos)
            for n_pos, keywords, star, double_star in calls.get(name, ())
        )
        if not used:
            unset.append(f"{module}.{name}({param})")
    return unset


def test_every_default_is_set_by_some_call():
    assert unset_defaults() == []


def test_only_listed_defaults_are_set_by_the_tests_alone():
    assert sorted(unset_defaults(PRODUCTION_CALLERS)) == sorted(TEST_ONLY_DEFAULTS)


if __name__ == "__main__":
    params = _defaulted_params()
    unset = unset_defaults()
    test_only = unset_defaults(PRODUCTION_CALLERS)
    print(f"{len(params)} defaulted parameters, {len(unset)} never set, "
          f"{len(test_only)} set only by the tests")
    print("\n".join(unset + test_only))
