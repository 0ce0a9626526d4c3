from fractions import Fraction

import pytest

from floergen.laurent import LaurentRing
from floergen.scalar import QQ, PrimeField
from floergen.toric import DelzantPolytope, corpus, polytope_product, projective_space

try:
    import hypothesis
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # reproducible runs: a fixed example sequence, no example database and no
    # per-example deadline; each test sets its own max_examples
    hypothesis.settings.register_profile(
        "floergen", derandomize=True, database=None, deadline=None)
    hypothesis.settings.load_profile("floergen")

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def polytopes():
    return corpus()


def lpoly(ring: LaurentRing, terms: dict):
    """Build a Laurent polynomial from {exps: int coeff}."""
    F = ring.field
    return ring.from_terms((e, F.from_int(c)) for e, c in terms.items())


def dense_columns(columns, rows, zero=0):
    """The dense matrix with `rows` rows whose column k is the sparse column
    columns[k], a dict {row: entry}."""
    return [[col.get(r, zero) for col in columns] for r in range(rows)]


def dense_bit_rows(rows, cols):
    """The dense F_2 matrix with `cols` columns whose row t has bit k of
    rows[t] as its entry k."""
    return [[row >> k & 1 for k in range(cols)] for row in rows]


def F(p=None):
    return QQ if p is None else PrimeField(p)


def dp6():
    """The monotone hexagon: CP2 blown up at three points, six facets."""
    return DelzantPolytope(
        n=2, normals=[[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]],
        lambdas=[Fraction(1)] * 6, name="dP6",
    )


def ladder():
    """The benchmark's polytope ladder, from floergen's own builders."""
    cp = {n: projective_space(n) for n in range(1, 6)}
    cp1xcp1 = polytope_product(cp[1], cp[1])
    return {
        **{f"CP{n}": P for n, P in cp.items()},
        "CP1xCP1": cp1xcp1,
        "CP1^3": polytope_product(cp1xcp1, cp[1], name="CP1^3"),
        "CP2xCP1": polytope_product(cp[2], cp[1]),
        "dP6": dp6(),
        "CP1^4": polytope_product(cp1xcp1, cp1xcp1, name="CP1^4"),
        "CP2xCP2": polytope_product(cp[2], cp[2]),
    }


def reparametrised():
    """CP2xCP1 with its facets in reverse order and the unimodular shear
    (x, y, z) -> (x + y, y, y + z) applied to its normals: the same toric
    manifold in other coordinates, whose co0 images z^(nu_j) have exponents
    up to 2 and of mixed signs."""
    P = ladder()["CP2xCP1"]
    shear = [[1, 1, 0], [0, 1, 0], [0, 1, 1]]
    normals = [[sum(a * x for a, x in zip(row, nu)) for row in shear]
               for nu in reversed(P.normals)]
    return DelzantPolytope(n=3, normals=normals, lambdas=[Fraction(1)] * len(normals),
                           name="CP2xCP1-sheared")
