"""floergen's kernels add and subtract field elements with the native
operators, reducing once (`% p` over F_p), not with a Field's per-element
methods; only the Field classes of scalar.py define and call those."""

import ast
import pathlib

import floergen

PACKAGE = pathlib.Path(floergen.__file__).parent
FIELD_OBJECTS = {"F", "field", "self.field", "self.ring.field"}


def field_method_calls(tree, skip_field_classes=False):
    """(line, call) of each `.add(` or `.sub(` called on a field object,
    leaving out the bodies of classes deriving from Field (and Field itself)
    when skip_field_classes is set."""
    skipped = set()
    if skip_field_classes:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (node.name == "Field" or any(
                    ast.unparse(base) == "Field" for base in node.bases)):
                skipped.update(id(inner) for inner in ast.walk(node))
    return [(node.lineno, ast.unparse(node.func))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skipped
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("add", "sub")
            and ast.unparse(node.func.value) in FIELD_OBJECTS]


def test_no_kernel_adds_through_a_field_method():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = field_method_calls(tree, skip_field_classes=path.name == "scalar.py")
        if calls:
            found[path.name] = calls
    assert found == {}


def test_the_check_sees_each_field_object():
    source = ("def f(F, field, pairs):\n"
              "    F.add(1, 2)\n"
              "    field.sub(1, 2)\n"
              "    pairs.add(3)\n"
              "class A:\n"
              "    def g(self):\n"
              "        self.field.add(1, 2)\n"
              "        self.ring.field.sub(1, 2)\n"
              "        self.field.mul(1, 2)\n"
              "class Field:\n"
              "    def sub(self, a, b):\n"
              "        return self.add(a, self.neg(b))\n"
              "class PrimeField(Field):\n"
              "    def twice(self, field):\n"
              "        return field.add(1, 1)\n")
    assert field_method_calls(ast.parse(source), skip_field_classes=True) == [
        (2, "F.add"), (3, "field.sub"), (7, "self.field.add"), (8, "self.ring.field.sub")]
    assert (15, "field.add") in field_method_calls(ast.parse(source))
