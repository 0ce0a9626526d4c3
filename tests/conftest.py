from fractions import Fraction

import pytest

from floergen.laurent import LaurentRing
from floergen.scalar import QQ, PrimeField
from floergen.toric import DelzantPolytope, corpus

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


def F(p=None):
    return QQ if p is None else PrimeField(p)


def dp6():
    """The monotone hexagon: CP2 blown up at three points, six facets."""
    return DelzantPolytope(
        n=2, normals=[[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]],
        lambdas=[Fraction(1)] * 6, name="dP6",
    )
