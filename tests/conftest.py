from fractions import Fraction

import pytest

from floergen import linalg
from floergen.grobner import _map_staircase
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


def dense_matrix(mor):
    """The dense matrix of a well-defined Morphism from its sparse columns."""
    return dense_columns(mor.columns, mor.codomain_dim)


def reference_morphism_matrix(domain, codomain, images):
    """The dense matrix of the algebra map sending the domain's Laurent
    generators to the codomain monomials `images`: one normal form per
    staircase monomial w^a z^b, of the image of z^(b - a)."""
    n = domain.source_ring.nvars
    ring, one = codomain.source_ring, codomain.field.one
    exps = [next(iter(p.terms)) for p in images]

    def image(e):
        return tuple(sum(x * a[j] for x, a in zip(e, exps)) for j in range(ring.nvars))

    return linalg.transpose([
        codomain.nf_coords(ring.from_terms(
            [(image(tuple(m[n + i] - m[i] for i in range(n))), one)]))
        for m in domain.staircase
    ])


def pi_matrix(qh_r, qh):
    """The dense matrix of the reduction pi: QH_R -> QH, Z_j -> Z_j."""
    ring = qh.source_ring
    return reference_morphism_matrix(qh_r, qh, [ring.variable(i) for i in range(ring.nvars)])


def squaring_columns(qa):
    """Sparse columns of the squaring map x -> x^2 of a quotient over F_2:
    the staircase walk sending each encoded variable x_v to x_v * x_v.  On
    QH_R it is the reference for f_R, which the real-locus check reads as
    s o pi through the Frobenius lift s."""
    return _map_staircase(qa, qa, [[v, v] for v in range(len(qa.names))])


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


# pairs of ladder polytopes whose products the product oracles run on
PRODUCT_PAIRS = [("CP1", "CP1"), ("CP1", "CP2"), ("CP2", "CP2"), ("CP1", "CP3"),
                 ("CP1xCP1", "CP2"), ("CP1", "dP6"), ("CP3", "CP3"), ("CP2", "CP4")]


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
