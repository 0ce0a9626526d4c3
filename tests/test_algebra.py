import collections
import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from conftest import dense_columns, ladder, lpoly
from floergen import algebra, linalg
from floergen.algebra import (
    FiniteAlgebra,
    bezout_idempotents,
    krylov_min_poly,
    local_decompose,
    madic_profile,
    radical_char_p,
    restrict_to_block,
    split_along,
)
from floergen.errors import AnomalyError, UsageError
from floergen.grobner import laurent_quotient
from floergen.laurent import LaurentRing
from floergen.quantum import jacobian_ring
from floergen.scalar import (
    DEFAULT_SEED,
    QQ,
    PrimeField,
    UniPoly,
    canonical,
    rational_roots,
    strip_roots,
)
from floergen.toric import corpus, polytope_product, projective_space, superpotential
from toric_gen_oracles import (
    _split_along as bezout_chain_split_along,
    pool_first_decompose,
    restrict_by_solving,
)


def univariate_algebra(field, coeffs):
    """FiniteAlgebra for field[z]/(poly given by coeffs, lowest first)."""
    R = LaurentRing(["z"], field)
    qa = laurent_quotient([R.from_terms(
        ((i,), field.from_int(c)) for i, c in enumerate(coeffs) if c
    )])
    return FiniteAlgebra.from_quotient(qa), qa


def test_from_quotient_refuses_an_infinite_quotient():
    R = LaurentRing(["x", "y"], QQ)
    qa = laurent_quotient([lpoly(R, {(1, 0): 1, (0, 0): -1})])  # x = 1 only
    assert not qa.finite
    with pytest.raises(UsageError, match="infinite-dimensional"):
        FiniteAlgebra.from_quotient(qa)


def test_radical_char2_dual_numbers():
    F2 = PrimeField(2)
    A, qa = univariate_algebra(F2, [1, 0, 1])  # (z+1)^2 in char 2
    rad = radical_char_p(A)
    assert len(rad) == 1
    R = LaurentRing(["z"], F2)
    target = qa.nf_coords(lpoly(R, {(1,): 1, (0,): 1}))
    assert linalg.subspace_contained(F2, rad, [target])
    assert linalg.subspace_contained(F2, [target], rad)


def test_radical_semisimple_is_zero():
    F7 = PrimeField(7)
    A, _ = univariate_algebra(F7, [-1, 0, 0, 1])  # z^3 - 1 squarefree
    assert radical_char_p(A) == []


def test_radical_F3_cube():
    F3 = PrimeField(3)
    R = LaurentRing(["x"], F3)
    xp1 = R.variable(0) + R.one()
    qa = laurent_quotient([xp1 * xp1 * xp1])
    A = FiniteAlgebra.from_quotient(qa)
    rad = radical_char_p(A)
    assert len(rad) == 2
    b1 = qa.nf_coords(xp1)
    b2 = qa.nf_coords(xp1 * xp1)
    assert linalg.subspace_contained(F3, rad, [b1, b2])
    assert linalg.subspace_contained(F3, [b1, b2], rad)


def test_radical_requires_prime_field():
    A, _ = univariate_algebra_q()
    with pytest.raises(UsageError):
        radical_char_p(A)


def univariate_algebra_q():
    R = LaurentRing(["z"], QQ)
    qa = laurent_quotient([lpoly(R, {(2,): 1, (0,): -1})])
    return FiniteAlgebra.from_quotient(qa), qa


def test_radical_nilpotency_property():
    F2 = PrimeField(2)
    R = LaurentRing(["Z"], F2)
    qa = laurent_quotient([lpoly(R, {(6,): 1, (0,): 1})])
    A = FiniteAlgebra.from_quotient(qa)
    for v in radical_char_p(A):
        assert all(c == 0 for c in A.power(v, A.dim))


def test_local_decompose_F2_cyclic():
    F2 = PrimeField(2)
    A, _ = univariate_algebra(F2, [1, 0, 0, 1])  # Z^3 - 1 = Z^3 + 1
    factors = local_decompose(A)
    assert [(f.dim, f.residue_degree) for f in factors] == [(1, 1), (2, 2)]


def test_local_decompose_F5():
    F5 = PrimeField(5)
    A, _ = univariate_algebra(F5, [-3, 0, 0, 1])
    factors = local_decompose(A)
    assert [(f.dim, f.residue_degree) for f in factors] == [(1, 1), (2, 2)]
    assert factors[0].point == [2]


def test_local_decompose_F3_local():
    F3 = PrimeField(3)
    R = LaurentRing(["x"], F3)
    xp1 = R.variable(0) + R.one()
    qa = laurent_quotient([xp1 * xp1 * xp1])
    A = FiniteAlgebra.from_quotient(qa)
    factors = local_decompose(A)
    assert len(factors) == 1
    f = factors[0]
    assert f.dim == 3 and f.residue_degree == 1 and f.point == [2]  # x = -1


def test_local_decompose_idempotent_properties():
    F7 = PrimeField(7)
    A, _ = univariate_algebra(F7, [-1, 0, 0, 0, 0, 0, 1])  # z^6 - 1
    factors = local_decompose(A)
    assert sum(f.dim for f in factors) == A.dim
    total = [F7.zero] * A.dim
    for f in factors:
        total = [F7.add(a, b) for a, b in zip(total, f.idempotent)]
        assert A.mult(f.idempotent, f.idempotent) == f.idempotent
    assert total == A.unit
    for f, g in itertools.combinations(factors, 2):
        assert all(c == 0 for c in A.mult(f.idempotent, g.idempotent))


def test_local_decompose_splits_f4_tensor_f4_though_no_generator_does():
    # F4 (x) F4: both generators u, v have the primary minimal polynomial
    # t^2 + t + 1, yet the Frobenius-fixed elements split the algebra into
    # two residue-degree-2 fields
    F2 = PrimeField(2)
    R = LaurentRing(["u", "v"], F2)
    u, v = R.variable(0), R.variable(1)
    qa = laurent_quotient([u * u + u + R.one(), v * v + v + R.one()])
    A = FiniteAlgebra.from_quotient(qa)
    factors = local_decompose(A)
    assert [(f.dim, f.residue_degree) for f in factors] == [(2, 2), (2, 2)]


def test_split_point_count_matches_variety_points():
    # residue-degree-1 factor count equals F_p point count of the system
    for p in (3, 5, 7):
        field = PrimeField(p)
        R = LaurentRing(["x", "y"], field)
        gens = [lpoly(R, {(2, 0): 1, (0, 0): -1}),
                lpoly(R, {(0, 2): 1, (0, 0): -1})]
        qa = laurent_quotient(gens)
        A = FiniteAlgebra.from_quotient(qa)
        factors = local_decompose(A)
        points = [
            (a, b)
            for a in range(1, p)
            for b in range(1, p)
            if all(g.evaluate([a, b]) == 0 for g in gens)
        ]
        split = [f for f in factors if f.residue_degree == 1]
        assert len(split) == len(points)
        assert sorted(f.point for f in split) == sorted(list(pt) for pt in points)


def test_bezout_idempotents_cp1():
    A, qa = univariate_algebra_q()
    a = [Fraction(0), Fraction(2)]  # 2z on basis {1, z}
    e, e_perp, found = bezout_idempotents(A, a, Fraction(2))
    assert found
    assert e == [Fraction(1, 2), Fraction(1, 2)]
    assert A.mult(e, e) == e
    assert all(c == 0 for c in A.mult(e, e_perp))
    assert [Fraction(x) + Fraction(y) for x, y in zip(e, e_perp)] == A.unit


def test_bezout_lambda_not_root():
    A, _ = univariate_algebra_q()
    e, e_perp, found = bezout_idempotents(A, [Fraction(0), Fraction(2)], Fraction(5))
    assert not found
    assert all(c == 0 for c in e)
    assert e_perp == A.unit


def test_bezout_F7_eigenvector():
    F7 = PrimeField(7)
    A, qa = univariate_algebra(F7, [-1, 0, 0, 1])  # z^3 - 1
    a = [0, 3, 0]  # 3z
    e, e_perp, found = bezout_idempotents(A, a, 3)
    assert found
    # e*A is the z = 1 eigenspace: z * e == e
    z = [0, 1, 0]
    assert A.mult(z, e) == e
    # generalized eigenspace membership: (a - 3)^dim annihilates e*A
    F = A.field
    shifted = [F.sub(x, y) for x, y in zip(a, [3 * c % 7 for c in A.unit])]
    m = linalg.mat_pow(F, A.mult_matrix(shifted), A.dim)
    for vec in linalg.image_basis(F, A.mult_matrix(e)):
        assert all(c == 0 for c in linalg.mat_vec(F, m, vec))


def test_madic_profiles():
    F3 = PrimeField(3)
    R = LaurentRing(["x"], F3)
    xp1 = R.variable(0) + R.one()
    qa = laurent_quotient([xp1 * xp1 * xp1])
    A = FiniteAlgebra.from_quotient(qa)
    f = local_decompose(A)[0]
    assert madic_profile(f) == [1, 1, 1]
    assert sum(madic_profile(f)) == f.dim

    F5 = PrimeField(5)
    A5, _ = univariate_algebra(F5, [-3, 0, 0, 1])
    fs = local_decompose(A5)
    assert madic_profile(fs[0]) == [1]

    F2 = PrimeField(2)
    A2, _ = univariate_algebra(F2, [1, 0, 1])  # (Z+1)^2
    f2 = local_decompose(A2)[0]
    assert madic_profile(f2) == [1, 1]


def test_linear_ops_examples():
    zero3 = linalg.zeros(QQ, 3, 3)
    assert len(linalg.kernel_basis(QQ, zero3)) == 3
    v = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert linalg.subspace_contained(QQ, v, v)
    e0 = [[Fraction(1), Fraction(0)]]
    assert linalg.subspace_contained(QQ, e0, v)
    assert not linalg.subspace_contained(QQ, v, e0)
    assert linalg.subspace_contained(QQ, [], e0)
    assert not linalg.subspace_contained(QQ, e0, [])

    # kernel of squaring on F_2[Z]/(Z^6 - 1): dim 3, spanned by (Z^3+1){1,Z,Z^2}
    F2 = PrimeField(2)
    R = LaurentRing(["Z"], F2)
    qa = laurent_quotient([lpoly(R, {(6,): 1, (0,): 1})])
    A = FiniteAlgebra.from_quotient(qa)
    cols = [A.power([1 if i == j else 0 for i in range(6)], 2) for j in range(6)]
    sq = linalg.transpose(cols)
    ker = linalg.kernel_basis(F2, sq)
    assert len(ker) == 3
    z3p1 = qa.nf_coords(lpoly(R, {(3,): 1, (0,): 1}))
    expected = []
    for k in range(3):
        shift = qa.nf_coords(lpoly(R, {(3 + k,): 1, (k,): 1}))
        expected.append(shift)
    assert linalg.subspace_contained(F2, ker, expected)
    assert linalg.subspace_contained(F2, expected, ker)
    assert len(linalg.image_basis(F2, sq)) == 3


@pytest.mark.parametrize("name", ["CP2", "CP1xCP1", "CP1xCP1xCP1"])
def test_basis_mult_representation_matches_normal_forms(name):
    for field in (PrimeField(7), QQ):
        W = superpotential(corpus()[name], field)
        jac = jacobian_ring(W)
        A = FiniteAlgebra.from_quotient(jac)
        ring = W.ring
        rng = random.Random(name)

        def random_poly():
            return ring.from_terms(
                (tuple(rng.randint(-2, 2) for _ in range(ring.nvars)),
                 field.from_int(rng.randint(1, 6)))
                for _ in range(3)
            )

        for _ in range(8):
            a, b = random_poly(), random_poly()
            u, v = jac.nf_coords(a), jac.nf_coords(b)
            assert A.mult(u, v) == jac.nf_coords(a * b)
            assert linalg.mat_vec(field, A.mult_matrix(u), v) == A.mult(u, v)
        assert A.is_commutative() and A.is_associative()
        if field.char:
            blocks = [f.algebra for f in local_decompose(A)]
            assert sum(block.dim for block in blocks) == A.dim
        else:
            c1 = jac.nf_coords(W)
            chi = linalg.charpoly(field, A.mult_matrix(c1))
            blocks = [restrict_to_block(A, bezout_idempotents(A, c1, lam)[0])[0]
                      for lam, _ in rational_roots(chi)]
        for block in blocks:
            assert block.is_commutative()
            assert block.mult_matrix(block.unit) == linalg.identity(field, block.dim)
            assert block.is_associative()


def test_products_reduce_mod_p():
    # z^3 = 3, so unlike the toric Jacobian rings some structure constants are not 1
    A, qa = univariate_algebra(PrimeField(5), [2, 0, 0, 1])
    R = qa.source_ring
    a = lpoly(R, {(0,): 4, (1,): 3, (2,): 2})
    b = lpoly(R, {(0,): 1, (1,): 4, (2,): 3})
    u, v = qa.nf_coords(a), qa.nf_coords(b)
    assert A.mult(u, v) == qa.nf_coords(a * b)
    basis = linalg.identity(A.field, A.dim)
    assert A.mult_matrix(u) == linalg.transpose([A.mult(u, b) for b in basis])


def test_is_associative_detects_a_corrupted_product():
    A, _ = univariate_algebra(PrimeField(5), [2, 0, 0, 1])  # z^3 + 2
    assert A.is_associative()
    z_z = A.basis_mult[1][1]
    A.basis_mult[1][1] = {**z_z, 2: (z_z.get(2, 0) + 1) % 5}  # perturb z * z
    assert not A.is_associative()


def dense_mult(F, mats, u, v):
    """u * v on dense per-basis multiplication matrices, mats[j] being the
    matrix of v -> b_j * v: the product before the structure constants
    became sparse columns."""
    p = F.char
    out = [F.zero] * len(mats)
    nonzero_v = [(k, b) for k, b in enumerate(v) if b]
    for a, m in zip(u, mats):
        if a:
            for k, b in nonzero_v:
                c = a * b
                for r, row in enumerate(m):
                    if row[k]:
                        out[r] += c * row[k]
    return [x % p for x in out] if p else out


def dense_mult_matrix(F, mats, u):
    """Matrix of v -> u * v, sum_j u_j mats[j], on dense matrices."""
    p, n = F.char, len(mats)
    out = [[F.zero] * n for _ in range(n)]
    for c, m in zip(u, mats):
        if c:
            for row, mrow in zip(out, m):
                for s, x in enumerate(mrow):
                    if x:
                        row[s] += c * x
    return [[x % p for x in row] for row in out] if p else out


def dense_is_commutative(mats):
    return all(mi[r][j] == mats[j][r][i] for i, mi in enumerate(mats)
               for j in range(i) for r in range(len(mats)))


def dense_is_associative(F, mats):
    """Multiplication by b_i b_j is mats[i] mats[j] for every i and j."""
    return all(dense_mult_matrix(F, mats, [row[j] for row in mi]) == linalg.mat_mul(F, mi, mj)
               for mi in mats for j, mj in enumerate(mats))


def assert_sparse_constants_match_dense_reference(A, rng):
    """mult, mult_matrix, is_commutative and is_associative on A's sparse
    columns agree with the dense reference, and so they do on a copy whose
    column 1 * b_k carries an extra 1: that breaks commutativity, and
    associativity too, as (1 * 1) * b_k = b_k + 1 but 1 * (1 * b_k) =
    b_k + 2."""
    F, n = A.field, A.dim
    # no column stores a zero, so equal products are equal dicts
    assert all(x for cols in A.basis_mult for col in cols for x in col.values())
    mats = [dense_columns(cols, n, F.zero) for cols in A.basis_mult]
    for _ in range(4):
        u, v = ([F.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(2))
        assert A.mult(u, v) == dense_mult(F, mats, u, v)
        assert A.mult_matrix(u) == dense_mult_matrix(F, mats, u)
    assert A.is_commutative() and dense_is_commutative(mats)
    assert A.is_associative() and dense_is_associative(F, mats)
    if n < 2:
        return
    one = A.unit.index(F.one)
    assert A.unit == [F.one if i == one else F.zero for i in range(n)]
    k = (one + 1) % n
    bad = dataclasses.replace(A, basis_mult=[list(cols) for cols in A.basis_mult])
    bad.basis_mult[one][k] = {**A.basis_mult[one][k], one: F.one}
    bad_mats = [dense_columns(cols, n, F.zero) for cols in bad.basis_mult]
    assert not bad.is_commutative() and not dense_is_commutative(bad_mats)
    assert not bad.is_associative() and not dense_is_associative(F, bad_mats)


@pytest.mark.parametrize("p", [None, 7], ids=["Q", "F7"])
@pytest.mark.parametrize("name", list(ladder()))
def test_sparse_structure_constants_match_dense_reference_on_the_ladder(name, p):
    assert_sparse_constants_match_dense_reference(ladder_algebra(name, p), random.Random(name))


def test_sparse_structure_constants_match_dense_reference_on_univariate_algebras():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def algebras(draw):
        field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6)) + [1]
        hypothesis.assume(field.from_int(coeffs[0]))
        return field, coeffs

    @hypothesis.settings(max_examples=60, derandomize=True)
    @hypothesis.given(algebras(), st.integers(0, 2 ** 32))
    def check(case, seed):
        A, _ = univariate_algebra(*case)
        assert A.dim == len(case[1]) - 1
        assert_sparse_constants_match_dense_reference(A, random.Random(seed))

    check()


def test_products_refuse_vectors_of_the_wrong_length():
    F7 = PrimeField(7)
    A = FiniteAlgebra.from_quotient(jacobian_ring(superpotential(corpus()["CP2"], F7)))
    assert A.dim == 3
    assert A.mult([0, 1, 0], [0, 1, 0]) == [0, 0, 1]
    for u, v in (([0, 1], [0, 1, 0]), ([0, 1, 0, 5], [0, 1, 0]),
                 ([0, 1, 0], [0, 1]), ([0, 1, 0], [0, 1, 0, 5])):
        with pytest.raises(UsageError, match="length"):
            A.mult(u, v)
    for u in ([0, 1], [0, 1, 0, 5], []):
        with pytest.raises(UsageError, match="length"):
            A.mult_matrix(u)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_bezout_single_eigenvalue(field):
    A, qa = univariate_algebra(field, [-1, 3, -3, 1])  # (z - 1)^3
    z = qa.nf_coords(qa.source_ring.variable(0))
    e, e_perp, found = bezout_idempotents(A, z, field.one)
    assert found
    assert e == A.unit
    assert all(c == field.zero for c in e_perp)


def q_jacobian(name):
    cp1, cp2 = projective_space(1), projective_space(2)
    P = {
        "CP2": cp2,
        "CP1^4": polytope_product(polytope_product(cp1, cp1), polytope_product(cp1, cp1)),
        "CP2xCP2": polytope_product(cp2, cp2),
    }[name]
    W = superpotential(P, QQ)
    jac = jacobian_ring(W)
    return FiniteAlgebra.from_quotient(jac), jac.nf_coords(W)


# rational roots of chi = charpoly(c1) with multiplicities, and deg(residual)
CRT_CASES = {
    "CP2": ([(3, 1)], 2),
    "CP1^4": ([(8, 1), (4, 4), (0, 6), (-4, 4), (-8, 1)], 0),
    "CP2xCP2": ([(6, 1), (-3, 2)], 6),
}


@pytest.mark.parametrize("name", CRT_CASES)
def test_one_crt_split_over_q(name):
    """One split_along call on chi's factors gives a complete set of
    orthogonal idempotents: bezout_idempotents' e for each rational root,
    whose block has the root's multiplicity, and one for the residual."""
    A, c1 = q_jacobian(name)
    F = A.field
    chi = linalg.charpoly(F, A.mult_matrix(c1))
    roots = rational_roots(chi)
    expected_roots, residual_degree = CRT_CASES[name]
    assert roots == [(Fraction(lam), m) for lam, m in expected_roots]
    factors, residual = strip_roots(chi, [lam for lam, _ in roots])
    assert factors == [(UniPoly(F, [-lam, F.one]), m) for lam, m in roots]
    assert residual.degree == residual_degree
    if residual.degree > 0:
        factors.append((residual, 1))
    idempotents = split_along(A, c1, A.unit, factors)
    assert len(idempotents) == len(factors)
    total = [F.zero] * A.dim
    for i, e in enumerate(idempotents):
        assert A.mult(e, e) == e
        for other in idempotents[i + 1:]:
            assert all(c == 0 for c in A.mult(e, other))
        total = [x + y for x, y in zip(total, e)]
    assert total == A.unit
    for (f, m), e in zip(factors, idempotents):
        assert linalg.rank(F, A.mult_matrix(e)) == (m if f is not residual else f.degree)
    for (lam, m), e in zip(roots, idempotents):
        found_e, e_perp, found = bezout_idempotents(A, c1, lam)
        assert found and found_e == e
        assert e_perp == [x - y for x, y in zip(A.unit, e)]
        assert restrict_to_block(A, e)[0].dim == m


# (polytope, p, expected blocks): over F_p the leaves of local_decompose as
# (dim, residue degree); over Q (p = 0) the dims of the eigen-idempotents of
# c1, whose coordinates have Fractions
RESTRICT_CASES = [
    pytest.param("CP2", 7, [(1, 1)] * 3, id="CP2"),
    pytest.param("CP1xCP1xCP1", 7, [(1, 1)] * 8, id="CP1xCP1xCP1"),
    pytest.param("CP1xCP1", 0, [1, 2, 1], id="Q-CP1xCP1"),
    pytest.param("CP1xCP1xCP1", 0, [1, 3, 3, 1], id="Q-CP1xCP1xCP1"),
    pytest.param("dP6", 0, [1, 3, 2], id="Q-dP6"),
    pytest.param("CP2", 5, [(1, 1), (2, 2)], id="F5-CP2"),
    pytest.param("CP3", 7, [(1, 1), (1, 1), (2, 2)], id="F7-CP3"),
    pytest.param("CP1xCP1", 2, [(4, 1)], id="F2-CP1xCP1"),
    # two leaves, neither the unit, so R is not the identity
    pytest.param("CP2xCP1", 3, [(3, 1), (3, 1)], id="F3-CP2xCP1"),
]


@pytest.mark.parametrize("name, p, expected", RESTRICT_CASES)
def test_restrict_to_block_matches_solve_reference(name, p, expected, monkeypatch):
    field = PrimeField(p) if p else QQ
    W = superpotential({**ladder(), **corpus()}[name], field)
    jac = jacobian_ring(W)
    A = jac.finite_algebra()
    seen = []
    if p:
        original = algebra.restrict_to_block
        with monkeypatch.context() as m:
            m.setattr(algebra, "restrict_to_block", lambda A, e: seen.append(e) or original(A, e))
            factors = local_decompose(A)
        assert [(f.dim, f.residue_degree) for f in factors] == expected
        # the leaves only
        assert sorted(map(tuple, seen)) == sorted(tuple(f.idempotent) for f in factors)
    else:
        c1 = jac.nf_coords(W)
        seen = [bezout_idempotents(A, c1, lam)[0]
                for lam, _ in rational_roots(krylov_min_poly(A, c1, A.unit))]
        assert [restrict_to_block(A, e)[0].dim for e in seen] == expected
        assert any(isinstance(x, Fraction) for e in seen for x in e)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for e in seen + [A.unit]:
        ref_block, ref_basis, ref_coords = restrict_by_solving(A, e)
        calls.clear()
        with monkeypatch.context() as m:
            for fn in ("rref", "invert", "image_basis"):
                m.setattr(linalg, fn, counted(fn, getattr(linalg, fn)))
            m.setattr(FiniteAlgebra, "mult", counted("mult", FiniteAlgebra.mult))
            block, basis, coords = restrict_to_block(A, e)
        assert calls == {"rref": 1}
        assert basis == ref_basis
        assert block == ref_block
        # coords(v) is the coordinate vector of e*v for every v
        for v in linalg.identity(field, A.dim):
            ev = A.mult(e, v)
            assert coords(ev) == coords(v) == ref_coords(ev)


def factor_key(factors):
    return [(f.idempotent, f.dim, f.residue_degree, f.point, f.maximal_ideal)
            for f in factors]


@pytest.mark.parametrize("name", list(ladder()))
def test_local_decompose_matches_pool_first_reference_on_ladder(name):
    for p in (2, 3, 5, 7):
        jac = jacobian_ring(superpotential(ladder()[name], PrimeField(p)))
        A = jac.finite_algebra()
        factors = local_decompose(A)
        assert factor_key(factors) == factor_key(pool_first_decompose(A)), p
        assert sum(f.dim for f in factors) == A.dim


def test_local_decompose_matches_pool_first_reference_on_field_products():
    # F4 (x) F4 over F2 and F9 (x) F9 over F3: both generators have primary
    # minimal polynomials, and the basis vector uv splits the algebra
    for p, gens in ((2, {(2, 0): 1, (1, 0): 1, (0, 0): 1}), (3, {(2, 0): 1, (0, 0): 1})):
        F = PrimeField(p)
        R = LaurentRing(["u", "v"], F)
        swap = {(b, a): c for (a, b), c in gens.items()}
        A = FiniteAlgebra.from_quotient(laurent_quotient([lpoly(R, gens), lpoly(R, swap)]))
        factors = local_decompose(A)
        assert [(f.dim, f.residue_degree) for f in factors] == [(2, 2), (2, 2)]
        assert factor_key(factors) == factor_key(pool_first_decompose(A))


def test_local_decompose_matches_pool_first_reference_on_random_univariate():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def quotients(draw):
        p = draw(st.sampled_from([2, 3, 5, 7]))
        middle = draw(st.lists(st.integers(0, p - 1), max_size=7))
        # a nonzero constant term, so z is a unit and the degree is the dim
        return p, [draw(st.integers(1, p - 1))] + middle + [draw(st.integers(1, p - 1))]

    @hypothesis.settings(max_examples=80)
    @hypothesis.given(quotients())
    def check(case):
        p, coeffs = case
        A, _ = univariate_algebra(PrimeField(p), coeffs)
        assert A.dim == len(coeffs) - 1
        assert factor_key(local_decompose(A)) == factor_key(pool_first_decompose(A))

    check()


@functools.cache
def ladder_algebra(name, p):
    """The Jacobian ring of a ladder polytope over Q (p None) or F_p."""
    field = QQ if p is None else PrimeField(p)
    return jacobian_ring(superpotential(ladder()[name], field)).finite_algebra()


LADDER_FIELDS = [None, 2, 3, 5, 7]


def assert_krylov_min_poly(A, u):
    assert krylov_min_poly(A, u, A.unit).coeffs == \
        linalg.minimal_polynomial(A.field, A.mult_matrix(u)).coeffs


@pytest.mark.parametrize("name", list(ladder()))
def test_element_min_poly_matches_matrix_reference_on_generators(name):
    for p in LADDER_FIELDS:
        A = ladder_algebra(name, p)
        for u in A.generators + [A.unit, [A.field.zero] * A.dim]:
            assert_krylov_min_poly(A, u)


def test_element_min_poly_matches_matrix_reference_on_random_elements():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(st.sampled_from(list(ladder())), st.sampled_from(LADDER_FIELDS),
                      st.data())
    def check(name, p, data):
        A = ladder_algebra(name, p)
        # F_p elements are ints in range(p), rational ones Fractions
        entries = st.integers(0, p - 1) if p else st.fractions(-3, 3, max_denominator=3)
        assert_krylov_min_poly(A, data.draw(st.lists(entries, min_size=A.dim, max_size=A.dim)))

    check()


def test_local_decompose_factor_calls_cp1_4_f7(monkeypatch):
    """Each basis vector of the Frobenius-fixed space refines the current
    idempotents by one factorization each, until there are as many
    idempotents as local factors, and a leaf reads its point from the
    radical: 16 calls on the 16 one-dimensional leaves of CP1^4/F7.  The
    local-first loop, which counted each block's local factors and scanned
    its pool of generators and basis vectors for a split, made 49 calls
    here, and the pool-first loop before it 433."""
    calls = []
    original = algebra.univariate_factor

    def counted(f, seed=DEFAULT_SEED):
        calls.append(f.degree)
        return original(f, seed)

    monkeypatch.setattr(algebra, "univariate_factor", counted)
    jac = jacobian_ring(superpotential(ladder()["CP1^4"], PrimeField(7)))
    factors = local_decompose(jac.finite_algebra())
    assert [(f.dim, f.residue_degree) for f in factors] == [(1, 1)] * 16
    assert len(calls) == 16


def test_local_decompose_raises_on_a_nonlocal_block_it_cannot_split(monkeypatch):
    # z^6 - 1 over F7 has six local factors; with a factorizer that never
    # splits, no element exposes them
    A, _ = univariate_algebra(PrimeField(7), [-1, 0, 0, 0, 0, 0, 1])
    monkeypatch.setattr(algebra, "univariate_factor", lambda f, seed=DEFAULT_SEED: [(f, 1)])
    with pytest.raises(AnomalyError):
        local_decompose(A)


# --- the CRT splitter against the iterated-Bezout reference ---------------------


def c1_factors(A, c1):
    """chi = charpoly(c1) as prod (t - lam)^m * residual, as the Q summand
    stage splits it."""
    chi = linalg.charpoly(A.field, A.mult_matrix(c1))
    factors, residual = strip_roots(chi, [lam for lam, _ in rational_roots(chi)])
    return factors + [(residual, 1)] if residual.degree > 0 else factors


def test_split_along_matches_bezout_chain_on_ladder_c1_over_q():
    multiplicities, residual_degrees = set(), set()
    for name, P in ladder().items():
        W = superpotential(P, QQ)
        jac = jacobian_ring(W)
        A, c1 = jac.finite_algebra(), jac.nf_coords(W)
        factors = c1_factors(A, c1)
        got = split_along(A, c1, A.unit, factors)
        assert got == bezout_chain_split_along(A, A.unit, c1, factors), name
        multiplicities.update(k for _, k in factors)
        residual_degrees.update(f.degree for f, _ in factors if f.degree > 1)
    assert max(multiplicities) == 6 and {2, 6} <= residual_degrees


@pytest.mark.parametrize("p", [2, 3, 7])
def test_split_along_matches_bezout_chain_in_local_decompose(p, monkeypatch):
    # each refinement splits e along the minimal polynomial of a Berlekamp
    # vector s on e*A
    calls = []
    original = algebra.split_along

    def recorded(A, s, e, factors):
        out = original(A, s, e, factors)
        calls.append((s, e, factors, out))
        return out

    monkeypatch.setattr(algebra, "split_along", recorded)
    splits = 0
    for name in ladder():
        A = ladder_algebra(name, p)
        calls.clear()
        local_decompose(A)
        for s, e, factors, out in calls:
            assert out == bezout_chain_split_along(A, e, s, factors), name
            splits += len(factors) > 1
    assert splits > 0


def test_local_decompose_builds_one_multiplication_matrix_per_leaf(monkeypatch):
    # the Krylov walks and CRT splits step with sparse products; the only
    # dense matrix is the leaf's own, in restrict_to_block
    built = []
    original = FiniteAlgebra.mult_matrix

    def recorded(self, u):
        built.append(list(u))
        return original(self, u)

    monkeypatch.setattr(FiniteAlgebra, "mult_matrix", recorded)
    for name in ladder():
        A = ladder_algebra(name, 7)
        built.clear()
        leaves = [f.idempotent for f in local_decompose(A)]
        assert sorted(built) == sorted(leaves), name


def univariate_quotient(field, mu):
    """F[t]/(mu) for a monic mu, on the basis 1, t, ..., t^(n-1), and the
    coordinates of t: basis_mult[j] is the j-th power of the companion
    matrix of mu, whose first column is t."""
    n = mu.degree
    companion = [[field.one if r == k + 1 else field.zero for k in range(n - 1)]
                 + [field.neg(mu.coeffs[r])] for r in range(n)]
    powers = [linalg.identity(field, n)]
    for _ in range(n - 1):
        powers.append(linalg.mat_mul(field, companion, powers[-1]))
    A = FiniteAlgebra(field=field,
                      basis_mult=[[algebra.sparse(col) for col in linalg.transpose(m)]
                                  for m in powers],
                      unit=[row[0] for row in powers[0]])
    return A, [row[0] for row in companion]


def test_split_along_matches_bezout_chain_on_random_coprime_factors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
        coeff = (st.fractions(-3, 3, max_denominator=3).map(canonical) if field is QQ
                 else st.integers(0, field.char - 1))
        factors, dim = [], 0
        for _ in range(draw(st.integers(1, 4))):
            f = UniPoly(field, draw(st.lists(coeff, min_size=1, max_size=3)) + [field.one])
            k = draw(st.integers(1, 3))
            if dim + k * f.degree <= 10 and all(f.gcd(g).degree == 0 for g, _ in factors):
                factors.append((f, k))
                dim += k * f.degree
        return field, factors

    @hypothesis.settings(max_examples=80, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        field, factors = case
        mu = functools.reduce(UniPoly.__mul__, [f for f, k in factors for _ in range(k)])
        A, t = univariate_quotient(field, mu)
        assert A.is_associative() and krylov_min_poly(A, t, A.unit) == mu
        got = split_along(A, t, A.unit, factors)
        assert got == bezout_chain_split_along(A, A.unit, t, factors)

    check()
