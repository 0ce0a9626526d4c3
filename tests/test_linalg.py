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

from conftest import dense_columns, pi_matrix, squaring_columns  # noqa: E402
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
    """Entries read off `rref`: ints in [0, p) over F_p; over Q an int when
    integral and a Fraction with denominator > 1 otherwise."""
    for row in rows:
        for x in row:
            if field.char:
                assert type(x) is int and 0 <= x < field.char, x
            else:
                assert type(x) is int or type(x) is Fraction and x.denominator > 1, x


def assert_accumulated(field, rows, inputs):
    """Entries accumulated with native + and *: over F_p reduced like those
    read off `rref`; over Q an int or a Fraction, and an int throughout when
    every input entry is an int."""
    if field.char:
        return assert_canonical(field, rows)
    integral = all(type(x) is int for m in inputs for row in m for x in row)
    for row in rows:
        for x in row:
            assert type(x) is int if integral else type(x) in (int, Fraction), x


def element(field, code):
    """Zero for a negative code (about half the draws); over Q numerators in
    [-5, 5] and denominators in [1, 4], an integral value as an int."""
    if code < 0:
        return field.zero
    if field.char:
        return code % (field.char - 1) + 1
    num, den = divmod(code, 4)
    x = Fraction(num - 5, den + 1)
    return x.numerator if x.denominator == 1 else x


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
    assert_accumulated(field, [chi.coeffs], [mat])
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
    assert_accumulated(field, product, [a, b])
    image = linalg.mat_vec(field, a, v)
    assert image == reference_mat_vec(field, a, v)
    assert_accumulated(field, [image], [a, [v]])


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


def dense_rref_f2(mat):
    """The F_2 kernel `rref` ran before the bit-row echelon: Gauss-Jordan by
    columns on rows packed into ints, unpacked at the end."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [sum(1 << c for c, x in enumerate(row) if x) for row in mat]
    pivots = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        for i in range(r, rows):
            if m[i] & bit:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pr = m[r]
        for i in range(rows):
            if m[i] & bit and i != r:
                m[i] ^= pr
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [[(v >> c) & 1 for c in range(cols)] for v in m], pivots


@SETTINGS
@given(data=st.data())
def test_f2_bit_rows_match_dense_reference(data):
    """The F_2 echelon on bit rows against the dense kernel it replaced: the
    same RREF and pivots and the same rank, on 0-12 rows and columns."""
    F2 = FIELDS["F2"]
    rows, cols = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    mat = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    assert linalg.rref(F2, mat) == dense_rref_f2(mat)
    assert linalg.rank(F2, mat) == len(dense_rref_f2(mat)[1])


def test_f2_echelon_on_the_zero_ring_and_empty_inputs():
    F2 = realgen.F2
    assert linalg.rref(F2, []) == ([], [])
    assert linalg.rref(F2, [[], []]) == ([[], []], [])
    assert linalg.rank(F2, []) == linalg.rank(F2, [[], []]) == 0
    assert linalg.rank(F2, [[0, 0], [0, 0]]) == 0
    assert linalg.column_rank(F2, []) == linalg.column_rank(F2, [{}, {}]) == 0
    zero_ring = Morphism(True, None, [], 0, 0, 0)
    assert realgen.kernel_containment_check(zero_ring, zero_ring) == (0, 0, True)


@pytest.mark.parametrize("name", ["F2", "F7", "Q"])
@SETTINGS
@given(data=st.data())
def test_column_rank_matches_reference(name, data):
    """`column_rank` on sparse columns against `reference_rank` on the dense
    matrix, with no columns, all-zero columns and zero rows among the draws."""
    field = FIELDS[name]
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    mat = data.draw(matrices(field, rows=rows, cols=cols))
    columns = [{t: mat[t][k] for t in range(rows) if mat[t][k] != field.zero}
               for k in range(cols)]
    zeros = data.draw(st.integers(0, 2))
    got = linalg.column_rank(field, columns + [{}] * zeros)
    assert got == reference_rank(field, [row + [field.zero] * zeros for row in mat])


@pytest.mark.parametrize("name", ["F2", "F7", "Q"])
@SETTINGS
@given(data=st.data())
def test_column_rank_reads_only_the_touched_rows(name, data):
    """Columns whose rows lie near 10^6 have the rank of their dense
    matrix, and over F_2 no bit row is wider than the rows they touch."""
    field = FIELDS[name]
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    mat = data.draw(matrices(field, rows=rows, cols=cols))
    labels = data.draw(st.lists(st.integers(10**6 - 50, 10**6 + 50),
                                min_size=rows, max_size=rows, unique=True))
    columns = [{labels[t]: mat[t][k] for t in range(rows) if mat[t][k] != field.zero}
               for k in range(cols)]
    touched = len({t for col in columns for t in col})
    widths = []

    def recorded(echelon, bits):
        widths.append(bits.bit_length())
        return f2_insert(echelon, bits)

    f2_insert = linalg.f2_insert
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "f2_insert", recorded)
        got = linalg.column_rank(field, columns)
    assert got == reference_rank(field, mat)
    assert max(widths, default=0) <= touched
    assert len(widths) == (cols if name == "F2" else 0)


@pytest.mark.parametrize("name", ["Q", "F2", "F7"])
def test_kernel_of_the_empty_matrix_is_empty(name):
    field = FIELDS[name]
    assert linalg.kernel_basis(field, []) == []
    assert linalg.kernel_basis(field, [[], []]) == []


def test_containment_check_at_dim_256():
    """CP1^4: dim QH_R = 256, the size the real-locus check runs at."""
    cp1 = projective_space(1)
    P = polytope_product(polytope_product(cp1, cp1), polytope_product(cp1, cp1))
    F2 = realgen.F2
    qh_r = qh_presentation(P, F2, "mod2_weights")
    qh = qh_presentation(P, F2, "plain")
    assert qh_r.dim == 256
    pi = realgen.reduction_pi(qh_r, qh)
    lift = realgen.frobenius_matrix(qh, qh_r)
    ker_f_dim, ker_pi_dim, contained = realgen.kernel_containment_check(pi, lift)
    ref_f = reference_kernel(F2, dense_columns(squaring_columns(qh_r), qh_r.dim))
    ref_pi = reference_kernel(F2, pi_matrix(qh_r, qh))
    assert (ker_f_dim, ker_pi_dim) == (len(ref_f), len(ref_pi))
    ref_contained = reference_rank(F2, ref_pi + ref_f) == reference_rank(F2, ref_pi)
    assert contained == ref_contained
    assert contained


def morphism(field, mat, cols):
    """A well-defined Morphism with the matrix `mat` (`cols` columns), its
    kernel read off `reference_rref`."""
    rank = reference_rank(field, mat)
    columns = [{t: row[k] for t, row in enumerate(mat) if row[k]} for k in range(cols)]
    return Morphism(True, None, columns, cols - rank, cols, len(mat))


@SETTINGS
@given(data=st.data())
def test_containment_by_ranks_matches_kernels(data):
    """For f = s o pi with pi onto, the rank-nullity arithmetic of
    `kernel_containment_check` agrees with the kernels of f and pi read off
    `reference_rref`: their dimensions and whether ker f <= ker pi.  pi is
    an identity block beside drawn columns, its columns shuffled; s, of any
    rank, often has a kernel."""
    F2 = realgen.F2
    n = data.draw(st.integers(1, 5))
    m = n + data.draw(st.integers(0, 4))
    extra = data.draw(matrices(F2, rows=n, cols=m - n))
    order = data.draw(st.permutations(range(m)))
    block = [row + extra[i] for i, row in enumerate(linalg.identity(F2, n))]
    pi = [[row[c] for c in order] for row in block]
    s = data.draw(matrices(F2, rows=m, cols=n))
    got = realgen.kernel_containment_check(morphism(F2, pi, m), morphism(F2, s, n))
    ref_f = reference_kernel(F2, reference_mat_mul(F2, s, pi))
    ref_pi = reference_kernel(F2, pi)
    contained = reference_rank(F2, ref_pi + ref_f) == reference_rank(F2, ref_pi)
    assert got == (len(ref_f), len(ref_pi), contained)
