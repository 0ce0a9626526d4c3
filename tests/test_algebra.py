import itertools
import random
from fractions import Fraction

import pytest

from conftest import lpoly
from floergen import linalg
from floergen.algebra import (
    FiniteAlgebra,
    bezout_idempotents,
    local_decompose,
    madic_profile,
    radical_char_p,
)
from floergen.errors import UsageError
from floergen.grobner import laurent_quotient
from floergen.laurent import LaurentRing
from floergen.quantum import jacobian_ring
from floergen.scalar import QQ, PrimeField
from floergen.toric import corpus, superpotential


def univariate_algebra(field, coeffs):
    """FiniteAlgebra for field[z]/(poly given by coeffs, lowest first)."""
    R = LaurentRing(["z"], field)
    qa = laurent_quotient([R.from_terms(
        ((i,), field.from_int(c)) for i, c in enumerate(coeffs) if c
    )])
    return FiniteAlgebra.from_quotient(qa), qa


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


def test_local_decompose_needs_frobenius_fallback():
    # F4 (x) F4: every generator has primary minimal polynomial but the
    # algebra still splits into two residue-degree-2 fields
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
    F7 = PrimeField(7)
    W = superpotential(corpus()[name], F7)
    jac = jacobian_ring(W)
    A = FiniteAlgebra.from_quotient(jac)
    ring = W.ring
    rng = random.Random(name)

    def random_poly():
        return ring.from_terms(
            (tuple(rng.randint(-2, 2) for _ in range(ring.nvars)),
             F7.from_int(rng.randint(1, 6)))
            for _ in range(3)
        )

    for _ in range(8):
        a, b = random_poly(), random_poly()
        u, v = jac.nf_coords(a), jac.nf_coords(b)
        assert A.mult(u, v) == jac.nf_coords(a * b)
        assert linalg.mat_vec(F7, A.mult_matrix(u), v) == A.mult(u, v)
    assert A.is_commutative() and A.is_associative()
    factors = local_decompose(A)
    assert sum(f.dim for f in factors) == A.dim
    for f in factors:
        block = f.algebra
        assert block.is_commutative()
        assert block.mult_matrix(block.unit) == linalg.identity(F7, block.dim)
        assert block.is_associative()


def test_is_associative_detects_a_corrupted_product():
    A, _ = univariate_algebra(PrimeField(5), [2, 0, 0, 1])  # z^3 + 2
    assert A.is_associative()
    A.basis_mult[1][2][1] = (A.basis_mult[1][2][1] + 1) % 5  # perturb z * z
    assert not A.is_associative()
