"""floergen's kernels add, subtract, multiply and negate field elements with
the native operators, reducing once (`% p` over F_p), not with a Field's
per-element methods; only the Field classes of scalar.py define and use
those.  Binary powering, the clearing of denominators and the sparse
accumulate target += c * src are spelled once, as
`scalar.square_and_multiply`, `scalar.clear_denominators` and
`scalar.add_scaled`."""

import ast
import pathlib

import floergen

PACKAGE = pathlib.Path(floergen.__file__).parent
FIELD_METHODS = ("add", "sub", "mul", "neg")


def is_field_object(node):
    """`F`, `field`, or any attribute `.field` (`self.field`, `A.field`,
    `W.ring.field`)."""
    return (isinstance(node, ast.Name) and node.id in ("F", "field")
            or isinstance(node, ast.Attribute) and node.attr == "field")


def field_method_uses(tree, skip_field_classes=False):
    """(line, use) of each reference to `.add`, `.sub`, `.mul` or `.neg` on a
    field object, called or not, leaving out the bodies of classes deriving
    from Field (and Field itself) when skip_field_classes is set."""
    skipped = set()
    if skip_field_classes:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (node.name == "Field" or any(
                    ast.unparse(base) == "Field" for base in node.bases)):
                skipped.update(id(inner) for inner in ast.walk(node))
    return sorted((node.lineno, ast.unparse(node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and id(node) not in skipped
                  and node.attr in FIELD_METHODS and is_field_object(node.value))


def test_no_kernel_adds_through_a_field_method():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses = field_method_uses(tree, skip_field_classes=path.name == "scalar.py")
        if uses:
            found[path.name] = uses
    assert found == {}


def test_the_check_sees_each_field_object():
    source = ("def f(F, field, pairs, A, W):\n"
              "    F.add(1, 2)\n"
              "    field.sub(1, 2)\n"
              "    pairs.add(3)\n"
              "    add = F.sub if pairs else A.field.add\n"
              "    W.ring.field.neg(1)\n"
              "class A:\n"
              "    def g(self):\n"
              "        self.field.add(1, 2)\n"
              "        self.ring.field.sub(1, 2)\n"
              "        self.field.mul(1, 2)\n"
              "        self.field.inv(2)\n"
              "class Field:\n"
              "    def sub(self, a, b):\n"
              "        return self.add(a, self.neg(b))\n"
              "class PrimeField(Field):\n"
              "    def twice(self, field):\n"
              "        return field.mul(1, 2)\n")
    assert field_method_uses(ast.parse(source), skip_field_classes=True) == [
        (2, "F.add"), (3, "field.sub"), (5, "A.field.add"), (5, "F.sub"),
        (6, "W.ring.field.neg"), (9, "self.field.add"), (10, "self.ring.field.sub"),
        (11, "self.field.mul")]
    assert (18, "field.mul") in field_method_uses(ast.parse(source))


def arithmetic_spellings(tree):
    """(line, spelling) of each `math.lcm` import or use and each `>>=`
    augmented assignment, the marks of a hand-written clearing of
    denominators or square-and-multiply loop."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "from math import lcm")
                      for alias in node.names if alias.name == "lcm"]
        elif (isinstance(node, ast.Attribute) and node.attr == "lcm"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append((node.lineno, "math.lcm"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
            found.append((node.lineno, ">>="))
    return sorted(found)


def test_powering_and_denominator_clearing_are_spelled_only_in_scalar():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "scalar.py"
             and (uses := arithmetic_spellings(ast.parse(path.read_text(), str(path))))}
    assert found == {}


def test_the_check_sees_each_arithmetic_spelling():
    source = ("import math\nfrom math import gcd, lcm\n"
              "def f(e, lcm_word):\n    d = math.lcm(2, 3)\n    e >>= 1\n"
              "    e <<= 1\n    return lcm_word.lcm(e)\n")
    assert arithmetic_spellings(ast.parse(source)) == [
        (2, "from math import lcm"), (4, "math.lcm"), (5, ">>=")]


def sparse_accumulates(tree):
    """(line, spelling) of each `.pop(key, None)` inside a `for` loop over a
    `.items()` call, the mark of a hand-written sparse accumulate."""
    found = set()
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                and isinstance(loop.iter.func, ast.Attribute)
                and loop.iter.func.attr == "items"):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value is None):
                found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_sparse_accumulate_is_spelled_only_in_scalar():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "scalar.py"
             and (uses := sparse_accumulates(ast.parse(path.read_text(), str(path))))}
    assert found == {}


def test_the_check_sees_each_sparse_accumulate():
    source = ("def f(t, s, pairs):\n"
              "    for i, c in s.items():\n"
              "        if c:\n"
              "            t[i] = c\n"
              "        else:\n"
              "            t.pop(i, None)\n"
              "    for e, c in pairs:\n"
              "        t.pop(e, None)\n"
              "    for k in s.items():\n"
              "        for j in range(k):\n"
              "            s.pop(j)\n"
              "            t.pop(j, 0)\n"
              "            t.pop(j, None)\n")
    assert sparse_accumulates(ast.parse(source)) == [
        (6, "t.pop(i, None)"), (13, "t.pop(j, None)")]
