"""Exact dense linear algebra over a Field.

Matrices are lists of rows of field elements.  Everything here is fraction-
or modular-exact; no pivot thresholds, no floating point.

`rref` is the one dispatch point for elimination.  It reads `field.char` once
per call and hands the matrix to one kernel per field kind:

- F_2: each row packed into a Python int (bit c is column c) and inserted
  with `f2_insert` into an echelon, a dict from each row's lowest set bit to
  the row, so every elimination is one `^=`; the RREF is that echelon
  back-substituted from the highest pivot down and unpacked once.  `rank`
  over F_2 is the size of the echelon, and `column_rank` inserts each sparse
  column of a map as one bit int over the touched rows, with no dense matrix;
- F_p: plain ints, one `pow(a, p - 2, p)` per pivot and one list
  comprehension `(x - f*y) % p` per row operation, rows whose pivot-column
  entry is zero skipped;
- Q: each row cleared of denominators once (`scalar.clear_denominators`),
  then integer row operations `a*x - f*y` with the row's content divided
  out, and one division by the pivot per entry at the end, which gives the
  canonical rational of `scalar.canonical`: `x // pivot` when the pivot
  divides x, else a Fraction.

RREF is unique, so every kernel returns the same matrix and pivots as plain
Gauss-Jordan elimination with the field's own operations.  `kernel_basis`,
`image_basis`, `solve` and `invert` go through `rref`, and so do `rank`,
`column_rank` and `subspace_contained` except over F_2, where they read the
echelon's size.
`mat_vec`, `mat_mul`, `mat_sub`, `charpoly` and
`eval_poly_at_matrix` accumulate each output entry with native `+`, `-` and
`*` from the field's zero, so over Q it is an int or a Fraction (an int on
all-int input), and over F_p reduce it once with `% p`, as `kernel_basis`
does with its negated entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd

from .errors import UsageError
from .scalar import UniPoly, clear_denominators, square_and_multiply


def zeros(field, rows, cols):
    row = [field.zero] * cols
    return [row[:] for _ in range(rows)]


def identity(field, n):
    m, one = zeros(field, n, n), field.one
    for i in range(n):
        m[i][i] = one
    return m


def mat_mul(field, a, b):
    if a and b and len(a[0]) != len(b):
        raise UsageError("matrix dimension mismatch")
    zero, p = field.zero, field.char
    cols = len(b[0]) if b else 0
    # the nonzero entries of each row of b, so zeros cost nothing
    sparse_b = [[(j, y) for j, y in enumerate(bk) if y] for bk in b]
    out = []
    for ai in a:
        acc = [zero] * cols
        for c, bk in zip(ai, sparse_b):
            if c:
                for j, y in bk:
                    acc[j] += c * y
        out.append([x % p for x in acc] if p else acc)
    return out


def mat_vec(field, a, v):
    if a and len(a[0]) != len(v):
        raise UsageError("matrix/vector dimension mismatch")
    zero, p = field.zero, field.char
    support = [(j, x) for j, x in enumerate(v) if x]
    out = [sum([row[j] * x for j, x in support if row[j]], zero) for row in a]
    return [x % p for x in out] if p else out


def mat_sub(field, a, b):
    p = field.char
    out = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[x % p for x in row] for row in out] if p else out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(field, mat):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    p = field.char
    if p == 2:
        return _rref_f2(mat)
    if p:
        return _rref_fp(p, mat)
    return _rref_q(mat)


def f2_insert(echelon, bits):
    """Reduce the bit row `bits` by `echelon`, a dict from each row's lowest
    set bit to the row, and add what remains; True when it adds a pivot.
    Each XOR clears the lowest bit and changes only higher ones."""
    while bits:
        low = bits & -bits
        row = echelon.get(low)
        if row is None:
            echelon[low] = bits
            return True
        bits ^= row
    return False


def _f2_echelon(mat):
    echelon = {}
    for row in mat:
        f2_insert(echelon, sum(1 << c for c in compress(range(len(row)), row)))
    return echelon


def _rref_f2(mat):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    echelon = _f2_echelon(mat)
    # back-substitute from the highest pivot down: a reduced row has no
    # other pivot bit, so XORing it in clears one bit and sets no pivot bit
    done = {}
    pivot_mask = 0
    for low in sorted(echelon, reverse=True):
        row = echelon[low]
        rest = row & pivot_mask
        while rest:
            bit = rest & -rest
            row ^= done[bit]
            rest ^= bit
        done[low] = row
        pivot_mask |= low
    out = [[(done[low] >> c) & 1 for c in range(cols)] for low in sorted(done)]
    pivots = [low.bit_length() - 1 for low in sorted(done)]
    return out + [[0] * cols for _ in range(rows - len(out))], pivots


def _rref_fp(p, mat):
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pr = m[r]
        if pr[c] != 1:
            inv = pow(pr[c], p - 2, p)
            pr = m[r] = [x * inv % p for x in pr]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], pr)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _rref_q(mat):
    # Integer rows, with the content divided out after each row operation.
    # Scaling a row does not change the row space, so dividing each pivot
    # row by its pivot at the end gives the RREF over Q.
    m = [clear_denominators(row)[0] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pr = m[r]
        a = pr[c]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                g = gcd(a, f)
                ag, fg = a // g, f // g
                row = [ag * x - fg * y for x, y in zip(m[i], pr)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = []
    for row, c in zip(m, pivots):
        a = row[c]
        out.append([x // a if x % a == 0 else Fraction(x, a) for x in row])
    return out + [[0] * cols for _ in range(rows - r)], pivots


def rank(field, mat):
    if field.char == 2:
        return len(_f2_echelon(mat))
    return len(rref(field, mat)[1])


def column_rank(field, columns):
    """Rank of the sparse columns `columns`, dicts {row: nonzero entry}, on
    the rows they touch, numbered on first sight: over F_2 one bit int per
    column into one echelon, otherwise `rank` on the dense matrix."""
    if field.char == 2:
        echelon, number = {}, {}
        return sum(f2_insert(echelon, sum(1 << number.setdefault(t, len(number))
                                          for t in col)) for col in columns)
    touched = {t for col in columns for t in col}
    return rank(field, [[col.get(t, 0) for col in columns] for t in touched])


def kernel_basis(field, mat):
    """Basis of the right kernel {v : mat v = 0}, one vector per free column."""
    cols = len(mat[0]) if mat else 0
    r, pivots = rref(field, mat)
    pivot_set = set(pivots)
    zero, one, p = field.zero, field.one, field.char
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [zero] * cols
        v[free] = one
        for row_idx, pc in enumerate(pivots):
            x = -r[row_idx][free]
            v[pc] = x % p if p else x
        basis.append(v)
    return basis


def image_basis(field, mat):
    """Basis of the column space, as column vectors."""
    _, pivots = rref(field, mat)
    cols = transpose(mat)
    return [cols[c] for c in pivots]


def solve(field, mat, rhs):
    """One solution of mat x = rhs, or None if inconsistent."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i][:] + [rhs[i]] for i in range(rows)]
    r, pivots = rref(field, aug)
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return x


def invert(field, mat):
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [row + unit for row, unit in zip(mat, identity(field, n))]
    r, pivots = rref(field, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def span_contains(field, basis_vectors, v):
    """Is v in the span of basis_vectors (vectors as lists)?"""
    if not basis_vectors:
        return not any(v)
    mat = transpose(basis_vectors)
    return solve(field, mat, v) is not None


def subspace_contained(field, vectors_a, vectors_b):
    """span(vectors_a) <= span(vectors_b)?  One elimination: adding a to b
    leaves the rank unchanged exactly when a already lies in span(b)."""
    return rank(field, vectors_b + vectors_a) == rank(field, vectors_b)


def charpoly(field, mat) -> UniPoly:
    """Characteristic polynomial det(tI - M) by the Samuelson-Berkowitz
    division-free recursion; valid over any field including small F_p."""
    n = len(mat)
    zero, one, p = field.zero, field.one, field.char
    if n == 0:
        return UniPoly(field, [one])
    # Berkowitz: iteratively build the coefficient vector via Toeplitz products.
    poly = [one, -mat[0][0]]  # charpoly of the 1x1 leading block
    for k in range(1, n):
        # principal k+1 x k+1 block data
        a = mat[k][k]
        row = mat[k][:k]  # R
        col = [mat[j][k] for j in range(k)]  # C
        block = [r[:k] for r in mat[:k]]  # A (k x k)
        # powers of A applied to C
        powers = [col]
        for _ in range(k - 1):
            powers.append(mat_vec(field, block, powers[-1]))
        # Toeplitz column: [1, -a, -R C, -R A C, ..., -R A^{ k-1 } C]
        tcol = [one, -a]
        tcol += [-sum([x * y for x, y in zip(row, v) if x], zero) for v in powers]
        new = [zero] * (len(poly) + 1)
        for i, pc in enumerate(poly):
            if pc:
                for j, tc in enumerate(tcol[:len(new) - i]):
                    new[i + j] += pc * tc
        poly = [x % p for x in new] if p else new
    # poly holds coefficients highest degree first
    return UniPoly(field, list(reversed(poly)))


def minimal_polynomial(field, mat) -> UniPoly:
    """Minimal polynomial of a square matrix via first linear dependence of
    the flattened power sequence I, M, M^2, ..."""
    n = len(mat)
    if n == 0:
        return UniPoly(field, [field.one])
    p = field.char
    flat_powers = []
    power = identity(field, n)
    for _ in range(n + 1):
        flat_powers.append([x for row in power for x in row])
        # find dependence c_0 I + ... + c_d M^d = 0 with c_d = 1
        k = len(flat_powers)
        mat_cols = transpose(flat_powers[: k - 1]) if k > 1 else []
        if k > 1:
            sol = solve(field, mat_cols, [-x % p if p else -x for x in flat_powers[-1]])
            if sol is not None:
                return UniPoly(field, sol + [field.one])
        power = mat_mul(field, power, mat)
    raise AssertionError("minimal polynomial not found below dimension bound")


def mat_pow(field, mat, e):
    return square_and_multiply(identity(field, len(mat)), mat, e,
                               lambda a, b: mat_mul(field, a, b))


def eval_poly_at_matrix(field, poly: UniPoly, mat):
    n, p = len(mat), field.char
    acc = zeros(field, n, n)
    for c in reversed(poly.coeffs):
        acc = mat_mul(field, acc, mat)
        for i in range(n):
            x = acc[i][i] + c
            acc[i][i] = x % p if p else x
    return acc
