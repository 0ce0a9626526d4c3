"""Each module of floergen uses only the public names of its siblings."""

import ast
import pathlib

import floergen

PACKAGE = pathlib.Path(floergen.__file__).parent


def private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(tree):
    """(line, name) of each private name the module takes from a sibling:
    imported by `from .x import _y` or `from floergen.x import _y`, or read
    as `x._y` off a sibling module x it imported."""
    siblings, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "floergen"):
            for alias in node.names:
                if private(alias.name):
                    uses.append((node.lineno, alias.name))
                elif node.module is None or node.module == "floergen":
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and private(node.attr)):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if (uses := private_uses(ast.parse(path.read_text(), str(path))))}
    assert found == {}


def test_the_check_sees_each_kind_of_private_use():
    source = ("from . import linalg\nfrom .grobner import _map_staircase, algebra_morphism\n"
              "from floergen.scalar import _canon\nx = linalg._rref_f2\ny = linalg.rank\n")
    assert private_uses(ast.parse(source)) == [
        (2, "_map_staircase"), (3, "_canon"), (4, "linalg._rref_f2")]


# the state a QuotientAlgebra keeps for its own staircase walk
QUOTIENT_PRIVATE = ("_require_finite", "_stair", "_divisors", "_position", "_border", "_times")


def quotient_private_reads(tree):
    """(line, attribute) of each read of a QuotientAlgebra's private state
    off any object, `qa._require_finite()` or `self._stair` alike."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in QUOTIENT_PRIVATE)


def test_only_grobner_reads_a_quotients_private_state():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "grobner.py"
             and (uses := quotient_private_reads(ast.parse(path.read_text(), str(path))))}
    assert found == {}


def test_the_check_sees_each_private_read_of_a_quotient():
    source = ("def f(qa, A):\n    qa._require_finite()\n    n = len(A.quotient._stair)\n"
              "    return qa.dim, qa._times(v, 0), _divisors\n")
    assert quotient_private_reads(ast.parse(source)) == [
        (2, "_require_finite"), (3, "_stair"), (4, "_times")]


def sibling_imports(tree):
    """The sibling modules a module imports, by `from . import x`,
    `from .x import y` or their `floergen.` spellings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "floergen"):
            module = (node.module or "").removeprefix("floergen").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("floergen."))
    return found


def test_toric_holds_polytope_data_and_builds_no_ring_presentation():
    """Presentations of rings read off a polytope live in quantum, so toric
    reaches no sibling beyond arithmetic, Laurent polynomials and errors."""
    tree = ast.parse((PACKAGE / "toric.py").read_text())
    assert sibling_imports(tree) <= {"linalg", "laurent", "scalar", "errors"}


def test_sibling_imports_sees_each_spelling():
    source = ("from . import linalg, errors\nfrom .grobner import Budget\n"
              "from floergen.scalar import QQ\nimport floergen.quantum\nimport json\n")
    assert sibling_imports(ast.parse(source)) == {
        "linalg", "errors", "grobner", "scalar", "quantum"}
