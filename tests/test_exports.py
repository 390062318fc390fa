"""Every public name in src/dbarlab is reached by src/ or perfbench/ code.

A public top-level function or class, or a public method, that only the
tests call belongs in a tests/*_reference.py module instead.  A name counts
as reached when some src/ or perfbench/ module names it as an ast.Name or
ast.Attribute, so a docstring or comment mention does not count.  The
functions perfbench/layers.json traces are reached by name through the
tracer.  ALLOWED lists the rest, each with its reason.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "dbarlab").glob("*.py"))

ALLOWED = {
    "hormander.apply_Tstar": "criterion 4 checks the exact discrete adjoint",
    "exterior.inner_product": "criterion 4 pairs forms with it",
    "bochner.basic_estimate": "the paper's a-priori estimate, checked by criterion 6",
    "positivity.check_basic_inequality": "the pointwise form of criterion 6's estimate",
    "io.read_field": "the reader of the field format write_field writes",
    "grid.convolve": "test-only; 10+ test call sites, left for a later change",
    "singular.mollifier_kernel": "test-only; 10+ test call sites, left for a later change",
}


def _public_definitions(path: Path):
    """module.name for each public top-level function and class, and module.Class.method."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def _named_in(paths) -> set:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_public_src_name_is_reached_only_by_tests():
    named = _named_in(SRC + sorted((ROOT / "perfbench").rglob("*.py")))
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    traced = {f"{module}.{fn}" for module, spec in layers.items() for fn in spec["functions"]}
    unreached = {
        qualified
        for path in SRC
        for qualified, name in _public_definitions(path)
        if name not in named and qualified not in traced
    }
    # a new entry here means code that only tests call; a missing one, a stale ALLOWED
    assert unreached == set(ALLOWED)
