"""Every public name and knob in src/dbarlab is reached by src/ or perfbench/ code.

A public top-level function or class, or a public method, that only the
tests call belongs in a tests/ helper module instead.  A top-level name
counts as reached when some src/ or perfbench/ module names it as an
ast.Name or ast.Attribute; a method counts only through an ast.Attribute,
since a local variable of the same spelling does not call it.  A docstring
or comment mention counts for neither.  The functions perfbench/layers.json
traces are reached by name through the tracer.  ALLOWED lists the rest,
each with its reason.

A defaulted parameter of a public function or method is a knob; one that no
src/ or perfbench/ call passes, by keyword or by position, is held at its
default by every run.  KNOBS lists the knobs kept for the tests or for an
entry point, each with its reason.  A stale entry in either list fails.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "dbarlab").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").rglob("*.py"))

ALLOWED = {
    "hormander.apply_Tstar": "criterion 4 checks the exact discrete adjoint",
    "bochner.basic_estimate": "the paper's a-priori estimate, checked by criterion 6",
    "positivity.check_basic_inequality": "the pointwise form of criterion 6's estimate",
    "io.read_field": "the reader of the field format write_field writes",
}

KNOBS = {
    "hormander.solve_min_norm.maxiter_factor": "the tests' route to the iteration-cap error",
    "hormander.solve_min_norm.range_tol": "the tests' route to the range-defect error",
    "cli.main.argv": "the entry point reads sys.argv; the tests pass their own",
}


def _public_definitions(path: Path):
    """(qualified name, name, FunctionDef or ClassDef, is a method) of each public definition.

    The top-level functions and classes, then the methods of the classes.
    """
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name, member, True


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _traced() -> set:
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    return {f"{module}.{fn}" for module, spec in layers.items() for fn in spec["functions"]}


def test_no_public_src_name_is_reached_only_by_tests():
    names, attributes = set(), set()
    for tree in _trees(CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    traced = _traced()
    unreached = {
        qualified
        for path in SRC
        for qualified, name, _node, method in _public_definitions(path)
        if name not in attributes and (method or name not in names) and qualified not in traced
    }
    # a new entry here means code that only tests call; a missing one, a stale ALLOWED
    assert unreached == set(ALLOWED)


def _callee(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_knob_is_passed_by_src_or_perfbench():
    calls = {}
    for tree in _trees(CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) is not None:
                calls.setdefault(_callee(node), []).append(node)
    unpassed = set()
    for path in SRC:
        for qualified, name, node, method in _public_definitions(path):
            if not isinstance(node, ast.FunctionDef) or qualified in ALLOWED:
                continue
            # a call through an attribute binds a method's self or cls
            params = (node.args.posonlyargs + node.args.args)[1 if method else 0:]
            defaulted = params[len(params) - len(node.args.defaults):]
            knobs = [(params.index(arg), arg.arg) for arg in defaulted]
            knobs += [(None, arg.arg) for arg, default in
                      zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
            for position, knob in knobs:
                passed = any(
                    any(kw.arg == knob for kw in call.keywords)
                    or (position is not None and len(call.args) > position)
                    for call in calls.get(name, ())
                )
                if not passed:
                    unpassed.add(f"{qualified}.{knob}")
    # a new entry here means a knob every run leaves at its default; a missing
    # one, a stale KNOBS
    assert unpassed == set(KNOBS)
    assert all(reason.strip() for reason in KNOBS.values())
