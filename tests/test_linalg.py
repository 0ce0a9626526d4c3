"""Each elimination kernel of `linalg` against plain Gauss-Jordan elimination.

`reference_rref` is the field-generic loop that `linalg.rref` ran before it
had one kernel per field kind: every entry goes through `field.add`/`mul`.
RREF is unique, so the kernels must return exactly its matrix and pivots.
`mat_vec` and `mat_mul` are checked against a triple loop the same way, and
sympy is the independent oracle for rank, kernels, inverses, characteristic
polynomials and minimal polynomials (the last invariant factor of tI - M).
"""

import copy
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy import GF, QQ as SYMPY_QQ, Matrix, Poly, eye, symbols  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from floergen import linalg, realgen  # noqa: E402
from floergen.grobner import Morphism  # noqa: E402
from floergen.quantum import qh_presentation  # noqa: E402
from floergen.scalar import QQ, PrimeField  # noqa: E402
from floergen.toric import polytope_product, projective_space  # noqa: E402

FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3), "F7": PrimeField(7), "Q": QQ}
SETTINGS = settings(max_examples=60)


def reference_rref(field, mat):
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def reference_rank(field, mat):
    return len(reference_rref(field, mat)[1])


def reference_kernel(field, mat):
    """`linalg.kernel_basis`, read off `reference_rref`."""
    cols = len(mat[0]) if mat else 0
    r, pivots = reference_rref(field, mat)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[free] = field.one
        for row_idx, pc in enumerate(pivots):
            v[pc] = field.neg(r[row_idx][free])
        basis.append(v)
    return basis


def reference_mat_mul(field, a, b):
    cols = len(b[0]) if b else 0
    return [[field.sum(field.mul(row[k], b[k][j]) for k in range(len(b)))
             for j in range(cols)] for row in a]


def reference_mat_vec(field, a, v):
    return [field.sum(field.mul(x, y) for x, y in zip(row, v)) for row in a]


def assert_canonical(field, rows):
    for row in rows:
        for x in row:
            if field.char:
                assert type(x) is int and 0 <= x < field.char, x
            else:
                assert type(x) is Fraction, x


def element(field, code):
    """Zero for a negative code (about half the draws); over Q numerators in
    [-5, 5] and denominators in [1, 4]."""
    if code < 0:
        return field.zero
    if field.char:
        return code % (field.char - 1) + 1
    num, den = divmod(code, 4)
    return Fraction(num - 5, den + 1)


def vectors(field, size):
    codes = st.lists(st.integers(-44, 43), min_size=size, max_size=size)
    return codes.map(lambda cs: [element(field, c) for c in cs])


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """0-7 rows and columns: random, all-zero, or with repeated and scaled rows."""
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 7)) if cols is None else cols
    kind = draw(st.sampled_from(("random", "zero", "repeated")))
    if kind == "zero":
        return [[field.zero] * cols for _ in range(rows)]
    flat = draw(vectors(field, rows * cols))
    m = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    if kind == "repeated":
        for i in range(1, rows):
            if draw(st.booleans()):
                s = draw(vectors(field, 1))[0]
                m[i] = [field.mul(s, x) for x in m[draw(st.integers(0, i - 1))]]
    return m


def sympy_rank(field, mat):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if field.char:
        dom = GF(field.char)
        return DomainMatrix([[dom(x) for x in row] for row in mat], (rows, cols), dom).rank()
    return Matrix(rows, cols, [x for row in mat for x in row]).rank()


def from_sympy(field, c):
    if field.char:
        return int(c) % field.char
    return Fraction(int(c.p), int(c.q))


def sympy_charpoly(field, mat):
    """Coefficients of det(tI - M), lowest degree first."""
    n = len(mat)
    if field.char:
        dom = GF(field.char)
        coeffs = DomainMatrix([[dom(x) for x in row] for row in mat], (n, n), dom).charpoly()
    else:
        coeffs = Matrix(n, n, [x for row in mat for x in row]).charpoly().all_coeffs()
    return [from_sympy(field, c) for c in reversed(coeffs)]


def sympy_minimal_polynomial(field, mat):
    """The monic last invariant factor of tI - M, lowest degree first."""
    n = len(mat)
    t = symbols("t")
    dom = GF(field.char) if field.char else SYMPY_QQ
    m = Matrix(n, n, [x for row in mat for x in row])
    factors = invariant_factors(t * eye(n) - m, domain=dom[t])
    last = Poly(factors[-1], t, domain=dom).monic()
    return [from_sympy(field, c) for c in reversed(last.all_coeffs())]


@pytest.mark.parametrize("name", FIELDS)
@SETTINGS
@given(data=st.data())
def test_charpoly_and_minimal_polynomial_against_sympy(name, data):
    field = FIELDS[name]
    n = data.draw(st.integers(1, 6))
    mat = data.draw(matrices(field, rows=n, cols=n))
    before = copy.deepcopy(mat)
    chi = linalg.charpoly(field, mat)
    assert chi.coeffs == sympy_charpoly(field, mat)
    assert_canonical(field, [chi.coeffs])
    mu = linalg.minimal_polynomial(field, mat)
    assert mu.coeffs == sympy_minimal_polynomial(field, mat)
    assert_canonical(field, [mu.coeffs])
    assert mat == before


@pytest.mark.parametrize("name", FIELDS)
@SETTINGS
@given(data=st.data())
def test_rref_matches_reference(name, data):
    field = FIELDS[name]
    mat = data.draw(matrices(field))
    before = copy.deepcopy(mat)
    got = linalg.rref(field, mat)
    assert got == reference_rref(field, mat)
    assert mat == before
    assert_canonical(field, got[0])


@pytest.mark.parametrize("name", FIELDS)
@SETTINGS
@given(data=st.data())
def test_mat_vec_and_mat_mul_match_triple_loop(name, data):
    field = FIELDS[name]
    inner = data.draw(st.integers(0, 7))
    a = data.draw(matrices(field, cols=inner))
    b = data.draw(matrices(field, rows=inner))
    v = data.draw(vectors(field, inner))
    product = linalg.mat_mul(field, a, b)
    assert product == reference_mat_mul(field, a, b)
    assert_canonical(field, product)
    image = linalg.mat_vec(field, a, v)
    assert image == reference_mat_vec(field, a, v)
    assert_canonical(field, [image])


@pytest.mark.parametrize("name", FIELDS)
@SETTINGS
@given(data=st.data())
def test_rank_and_kernel_against_sympy(name, data):
    field = FIELDS[name]
    mat = data.draw(matrices(field))
    cols = len(mat[0]) if mat else 0
    rank = linalg.rank(field, mat)
    assert rank == sympy_rank(field, mat)
    kernel = linalg.kernel_basis(field, mat)
    assert len(kernel) == cols - rank
    assert_canonical(field, kernel)
    for v in kernel:
        assert all(x == field.zero for x in reference_mat_vec(field, mat, v))
    if kernel:
        assert sympy_rank(field, kernel) == len(kernel)


@pytest.mark.parametrize("name", FIELDS)
@SETTINGS
@given(data=st.data())
def test_invert_against_sympy(name, data):
    field = FIELDS[name]
    n = data.draw(st.integers(0, 7))
    mat = data.draw(matrices(field, rows=n, cols=n))
    inverse = linalg.invert(field, mat)
    if sympy_rank(field, mat) < n:
        assert inverse is None
        return
    assert reference_mat_mul(field, inverse, mat) == linalg.identity(field, n)
    assert_canonical(field, inverse)


def test_containment_check_at_dim_256():
    """CP1^4: dim QH_R = 256, the size the real-locus check runs at."""
    cp1 = projective_space(1)
    P = polytope_product(polytope_product(cp1, cp1), polytope_product(cp1, cp1))
    F2 = realgen.F2
    qh_r = qh_presentation(P, F2, "mod2_weights")
    qh = qh_presentation(P, F2, "plain")
    assert qh_r.dim == 256
    pi = realgen.reduction_pi(qh_r, qh)
    frob = realgen.frobenius_matrix(qh_r)
    ker_f_dim, ker_pi_dim, contained = realgen.kernel_containment_check(pi, frob)
    ref_f = reference_kernel(F2, frob)
    ref_pi = reference_kernel(F2, pi.matrix)
    assert (ker_f_dim, ker_pi_dim) == (len(ref_f), len(ref_pi))
    ref_contained = reference_rank(F2, ref_pi + ref_f) == reference_rank(F2, ref_pi)
    assert contained == ref_contained
    assert contained


@SETTINGS
@given(data=st.data())
def test_containment_by_ranks_matches_kernels(data):
    """ker f <= ker pi by ranks of row spaces agrees with the containment of
    the kernels themselves, read off `reference_rref`.  The rows of pi are
    sums of rows of f, so contained, and then some drawn rows, which often
    are not."""
    F2 = realgen.F2
    d = data.draw(st.integers(1, 7))
    frob = data.draw(matrices(F2, rows=data.draw(st.integers(1, 7)), cols=d))
    sums = data.draw(st.lists(
        st.lists(st.booleans(), min_size=len(frob), max_size=len(frob)), max_size=4))
    rows = [[sum(x for x, pick in zip(col, picks) if pick) % 2 for col in zip(*frob)]
            for picks in sums]
    extra = data.draw(st.integers(0 if rows else 1, 2))
    pi_matrix = rows + data.draw(matrices(F2, rows=extra, cols=d))
    pi = Morphism(True, None, pi_matrix, d - reference_rank(F2, pi_matrix), None,
                  d, len(pi_matrix))
    ker_f_dim, ker_pi_dim, contained = realgen.kernel_containment_check(pi, frob)
    ref_f = reference_kernel(F2, frob)
    ref_pi = reference_kernel(F2, pi_matrix)
    assert (ker_f_dim, ker_pi_dim) == (len(ref_f), len(ref_pi))
    assert contained == (reference_rank(F2, ref_pi + ref_f) == reference_rank(F2, ref_pi))
