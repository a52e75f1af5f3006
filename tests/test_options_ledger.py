"""Every option of dpplab has a caller.

An option is a defaulted parameter of a public function, of a public
method or `__init__` of a public class, or a defaulted field of a public
dataclass.  It is set when some call in `src/dpplab` or `perfbench/` to a
callable of that name passes it, by keyword or by position.  An option
that no such call sets takes one value only, unless a test or a library
user needs the others: then it is listed in ALLOWED with the reason.
"""
import ast
from pathlib import Path

import pytest

import dpplab

PACKAGE = Path(dpplab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = MODULES + sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))

ALLOWED = {
    "FiniteRangeFourier.context_pad_ranges": "the context convergence test in tests/test_kernels.py varies it",
    "FiniteRangeFourier.context_nodes_per_range": "the context convergence test in tests/test_kernels.py varies it",
    "vacuum_probability.disc": "a test reference; the tests reuse one operator across references",
    "janossy_density.disc": "a test reference; the tests reuse one operator across references",
    "high_precision_margin.kind": "a test reference; tests check each inequality kind",
    "high_precision_margin.dps": "a test reference; the working precision of mpmath",
    "spanning.axis": "spanning in a 2-D window runs along either axis; the tests check both",
}


def _init_fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The fields of a dataclass that its `__init__` takes, in order."""
    return [
        s for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        and not (s.value is not None and "init=False" in ast.unparse(s.value))
    ]


def _options(source: str) -> list[tuple[str, str, int | None, int]]:
    """(callee, parameter, position or None for keyword-only, line) of every option in `source`."""
    found = []

    def add(callee, args: ast.arguments, skip: int):
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        found.extend((callee, a.arg, i, a.lineno) for i, a in enumerate(positional) if i >= first)
        found.extend(
            (callee, a.arg, None, a.lineno) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node.name, node.args, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                found.extend(
                    (node.name, s.target.id, i, s.lineno)
                    for i, s in enumerate(_init_fields(node))
                    if s.value is not None
                )
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                    static = any(ast.unparse(d) == "staticmethod" for d in item.decorator_list)
                    add(node.name if item.name == "__init__" else item.name, item.args, 0 if static else 1)
    return found


def _settings(sources: list[str]) -> set[tuple[str, object]]:
    """(callee, keyword or position) of every argument that a call in `sources` passes."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.update((callee, k.arg) for k in node.keywords)
            out.update((callee, i) for i, a in enumerate(node.args) if not isinstance(a, ast.Starred))
    return out


def _unset(source: str, callers: list[str]) -> list[str]:
    settings = _settings(callers)
    return [
        f"line {line}: {callee}.{name}"
        for callee, name, position, line in _options(source)
        if (callee, name) not in settings and (callee, position) not in settings
    ]


def test_the_ledger_sees_an_option_without_a_caller():
    library = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=None, d=2):\n    pass\n"
        "class K:\n    def __init__(self, x, y=2):\n        pass\n"
        "    def m(self, z=0):\n        pass\n"
        "@dataclass\nclass S:\n    u: int\n    v: int = 0\n    w: int = 1\n    n: int = field(default=0, init=False)\n"
        "def _private(e=3):\n    pass\n"
    )
    callers = ["f(1, 2, d=3)\nK(1)\nk.m(5)\nS(0, 1)\n"]
    assert _unset(library, callers) == ["line 2: f.c", "line 5: K.y", "line 13: S.w"]


def test_allowed_options_exist():
    options = {f"{callee}.{name}" for path in MODULES for callee, name, _, _ in _options(path.read_text("utf-8"))}
    assert set(ALLOWED) <= options


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_option_has_a_caller(path):
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    unset = [u for u in _unset(path.read_text(encoding="utf-8"), callers) if u.split(": ")[1] not in ALLOWED]
    assert unset == []
