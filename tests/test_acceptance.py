"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test finishes by printing a PASS line (bypassing capture) so the
criterion verdicts are visible in any pytest run:

    pytest tests/test_acceptance.py -v
"""

import itertools
import random
from fractions import Fraction

from conftest import dense_columns, lpoly, pi_matrix, record_acceptance, squaring_columns
from floergen import linalg
from floergen.ainfty import (
    HochschildCochain,
    ainfty_residuals,
    cohomology,
    diagonal_bimodule,
    hochschild_diff,
    hom_bimodule,
    load_example,
    opposite,
    pi_map,
    self_module,
    theta_map,
)
from floergen.algebra import FiniteAlgebra, bezout_idempotents
from floergen.grobner import algebra_morphism, laurent_quotient
from floergen.laurent import LaurentRing
from floergen.quantum import (
    c1_element,
    c1_spectrum,
    classical_cohomology,
    co0_map,
    critical_points,
    jacobian_ring,
    real_cohomology_dims,
    s_mod_m2,
    toric_generation_report,
)
from floergen.realgen import F2, kernel_containment_check, real_gen_data, real_generation_report
from floergen.scalar import QQ, PrimeField, UniPoly
from floergen.toric import corpus, projective_space, superpotential, validate

AINFTY_CORPUS = ["lambda_x", "lambda_xy", "triangular", "dga3"]


def announce(n, text):
    line = f"[criterion {n}] PASS: {text}"
    record_acceptance(line)
    print(line)


def quadric_W(field):
    R = LaurentRing(["x", "y", "z"], field)
    return lpoly(R, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                     (-1, -1, 0): 1, (0, -1, -1): 1})


def test_criterion_1_quadric_threefold():
    # over F5: dim 3 with the eliminated relations, and H -> 2x
    F5 = PrimeField(5)
    jac = jacobian_ring(quadric_W(F5))
    assert jac.dim == 3
    R = jac.source_ring
    x, y, z = (R.variable(i) for i in range(3))
    assert all(c == 0 for c in jac.nf_coords(x - z))
    assert all(c == 0 for c in jac.nf_coords(x * x * y - R.one()))
    assert all(c == 0 for c in jac.nf_coords(x * x * x - R.constant(3)))
    w = jac.nf_coords(quadric_W(F5))
    xv = jac.nf_coords(x)
    assert w == [F5.mul(F5.from_int(6), c) for c in xv]  # c1 image is 6x
    h = [F5.mul(F5.inv(F5.from_int(3)), c) for c in w]
    assert h == [F5.mul(F5.from_int(2), c) for c in xv]  # H goes to 2x

    # over F3: a single local factor of dim 3 at x = z = -1, y = 1
    F3 = PrimeField(3)
    cp3 = critical_points(quadric_W(F3))
    assert len(cp3.factors) == 1
    f = cp3.factors[0]
    assert f.dim == 3 and f.residue_degree == 1
    assert f.point == [2, 1, 2]  # x = z = -1 = 2, y = 1

    # over F31: exactly 3 residue-degree-1 summands; brute-force root oracle
    F31 = PrimeField(31)
    cp31 = critical_points(quadric_W(F31))
    split = [f for f in cp31.factors if f.residue_degree == 1]
    assert len(split) == 3 and not cp31.nonsplit
    roots = [a for a in range(1, 31) if (2 * pow(a, 3, 31) - 1) % 31 == 0]
    assert len(roots) == 3
    assert sorted(pt[0] for pt in cp31.points) == roots
    announce(1, "quadric threefold: F5 relations and H -> 2x, F3 local factor "
                "at (-1, 1, -1), F31 splits into 3 summands")


def test_criterion_2_projective_spaces():
    expected_charpoly = {1: [-4, 0, 1], 2: [-27, 0, 0, 1], 3: [-256, 0, 0, 0, 1]}
    for n in (1, 2, 3):
        P = projective_space(n)
        dims = classical_cohomology(P, QQ)
        W = superpotential(P, QQ)
        jac = jacobian_ring(W)
        assert jac.dim == n + 1 == sum(dims)
        # univariate oracle: Jac is isomorphic to Q[z]/(z^{n+1} - 1)
        Rz = LaurentRing(["t"], QQ)
        oracle = laurent_quotient([
            lpoly(Rz, {(n + 1,): 1, (0,): -1})
        ])
        mor = algebra_morphism(oracle, jac, [jac.source_ring.variable(0)])
        assert mor.well_defined and mor.kernel_dim == 0 and mor.surjective
        # c1 spectrum over Q, on both the Jacobian ring and the oracle
        spec = c1_spectrum(jac, c1_element("jac", P, QQ, jac))
        want = UniPoly(QQ, expected_charpoly[n])
        assert spec.char_poly == want
        t_elem = oracle.nf_coords(Rz.variable(0))
        oracle_c1 = [QQ.mul(Fraction(n + 1), c) for c in t_elem]
        assert linalg.charpoly(QQ, oracle.element_mult_matrix(oracle_c1)) == want
    # CP2 over F7: three summands with the expected points and values
    rep = toric_generation_report(projective_space(2), PrimeField(7))
    assert sorted(tuple(s.point) for s in rep.summands) == [(1, 1), (2, 2), (4, 4)]
    assert sorted(s.critical_value for s in rep.summands) == [3, 5, 6]
    jac7 = jacobian_ring(superpotential(projective_space(2), PrimeField(7)))
    spec7 = c1_spectrum(jac7, c1_element("jac", projective_space(2),
                                         PrimeField(7), jac7))
    roots = sorted(PrimeField(7).neg(f.coeffs[0]) for f, _ in spec7.factors)
    assert roots == [3, 5, 6]
    announce(2, "CP^n suite: dim Jac = n+1 = cohomology total, char polys "
                "t^{n+1} - (n+1)^{n+1}, CP2/F7 points and values {3,5,6}")


def test_criterion_3_co0_isomorphism_everywhere():
    fields = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]
    count = 0
    for name, P in corpus().items():
        for field in fields:
            pres, jac, mor = co0_map(P, field)
            assert mor.well_defined, (name, field)
            assert mor.kernel_dim == 0, (name, field)
            assert mor.surjective, (name, field)
            count += 1
    assert count == 25
    announce(3, "closed-open map is an isomorphism for all 5 corpus polytopes "
                "over Q, F2, F3, F5, F7 (25 cases)")


def test_criterion_4_duistermaat_character_independence():
    vertex_counts = {"CP1": 2, "CP2": 3, "CP3": 4, "CP1xCP1": 4, "CP1xCP1xCP1": 8}
    for name, P in corpus().items():
        over_q = classical_cohomology(P, QQ)
        over_f2 = classical_cohomology(P, F2)
        real = real_cohomology_dims(P)
        assert over_q == over_f2 == real, name
        assert sum(over_q) == vertex_counts[name] == len(validate(P).vertices)
    announce(4, "classical cohomology dims agree over Q and F2 and equal the "
                "real-locus dims; totals match vertex counts")


def test_criterion_5_char2_real_locus():
    expectations = {
        "CP2": {"nx": 3, "dim_r": 6, "dim": 3, "ker": 3},
        "CP3": {"nx": 4, "dim_r": 8, "dim": 4, "ker": 4},
        "CP1xCP1": {"nx": 2, "dim_r": 16, "dim": 4, "ker": 12},
    }
    for name, want in expectations.items():
        P = corpus()[name]
        data = real_gen_data(P)
        assert data.qh_r.dim == want["dim_r"]
        assert data.qh.dim == want["dim"]
        assert data.qh_r.dim == 2 ** (P.num_facets - P.n) * data.qh.dim
        ker_f = linalg.kernel_basis(F2, dense_columns(squaring_columns(data.qh_r), data.qh_r.dim))
        ker_pi = linalg.kernel_basis(F2, pi_matrix(data.qh_r, data.qh))
        ker_f_dim, ker_pi_dim, contained = kernel_containment_check(data.pi, data.lift)
        assert ker_f_dim == len(ker_f) == want["ker"]
        assert ker_pi_dim == len(ker_pi) == want["ker"]
        assert contained
        assert linalg.subspace_contained(F2, ker_f, ker_pi)
        assert linalg.subspace_contained(F2, ker_pi, ker_f)
        assert data.minimal_chern == want["nx"]
        rep = real_generation_report(P)
        assert not rep.anomaly
        assert rep.summands[0].verdict == "split-generates"
        assert "real locus split-generates" in rep.summands[0].statement
    # CP2 kernel basis is (Z^3 + 1) {1, Z, Z^2}
    data = real_gen_data(corpus()["CP2"])
    qa = data.qh_r
    ring = qa.source_ring
    expected = [qa.nf_coords(lpoly(ring, {(3 + k, 0, 0): 1, (k, 0, 0): 1}))
                for k in range(3)]
    ker_f = linalg.kernel_basis(F2, dense_columns(squaring_columns(qa), qa.dim))
    assert linalg.subspace_contained(F2, ker_f, expected)
    assert linalg.subspace_contained(F2, expected, ker_f)
    announce(5, "characteristic-2 real locus: dimension identity, "
                "ker(squaring) = ker(reduction), positive verdicts for "
                "CP2, CP3, CP1xCP1")


def test_criterion_6_square_zero_extension():
    rhos = {
        2: [[1, 1, 1]],
        3: [[1, 1, 1], [2, 1, 2]],
        7: [[1, 1, 1], [3, 2, 6]],
    }
    for p, rho_lists in rhos.items():
        field = PrimeField(p)
        for rho_full in rho_lists:
            for n in (1, 2, 3):
                rho = [field.from_int(r) for r in rho_full[:n]]
                qa, checks = s_mod_m2(n, rho, field)
                assert qa.dim == n + 1
                assert checks["m_squared_zero"]
                assert checks["square_zero_extension"]
    announce(6, "S/m^2 has dim n+1 with m^2 = 0 for n <= 3 over F2, F3, F7, "
                "trivial and nontrivial local systems")


def test_criterion_7_bezout_idempotents():
    # CP1 over Q at lambda = +-2
    P1 = corpus()["CP1"]
    jac1 = jacobian_ring(superpotential(P1, QQ))
    A1 = FiniteAlgebra.from_quotient(jac1)
    c1 = c1_element("jac", P1, QQ, jac1)
    spec1 = c1_spectrum(jac1, c1)
    eigen1 = dict(spec1.eigenspaces)
    for lam in (Fraction(2), Fraction(-2)):
        e, e_perp, found = bezout_idempotents(A1, c1, lam)
        assert found
        assert A1.mult(e, e) == e
        assert all(c == 0 for c in A1.mult(e, e_perp))
        assert [a + b for a, b in zip(e, e_perp)] == A1.unit
        block = linalg.image_basis(QQ, A1.mult_matrix(e))
        assert len(block) == eigen1[str(lam)]
        # e*A is the generalized eigenspace of c1
        shifted = [QQ.sub(x, QQ.mul(lam, u)) for x, u in zip(c1, A1.unit)]
        killer = linalg.mat_pow(QQ, A1.mult_matrix(shifted), A1.dim)
        for vec in block:
            assert all(c == 0 for c in linalg.mat_vec(QQ, killer, vec))

    # CP2 over F7 at lambda in {3, 5, 6}
    F7 = PrimeField(7)
    P2 = corpus()["CP2"]
    jac2 = jacobian_ring(superpotential(P2, F7))
    A2 = FiniteAlgebra.from_quotient(jac2)
    c2 = c1_element("jac", P2, F7, jac2)
    total = [F7.zero] * A2.dim
    for lam in (3, 5, 6):
        e, e_perp, found = bezout_idempotents(A2, c2, lam)
        assert found
        assert A2.mult(e, e) == e
        assert all(c == 0 for c in A2.mult(e, e_perp))
        assert [F7.add(a, b) for a, b in zip(e, e_perp)] == A2.unit
        block = linalg.image_basis(F7, A2.mult_matrix(e))
        assert len(block) == 1
        total = [F7.add(a, b) for a, b in zip(total, e)]
    assert total == A2.unit
    announce(7, "Bezout idempotents at CP1/Q lambda = +-2 and CP2/F7 "
                "lambda in {3,5,6}: idempotent, orthogonal, sum to 1, "
                "span the generalized eigenspaces")


def _random_diag_cochain(rng, A, cap, degree):
    phi = HochschildCochain(A, list(A.degrees), degree, cap=cap)
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            want = (degree + sum(A.degrees[i] - 1 for i in key)) % 2
            val = {}
            for p in range(A.dim):
                if A.degrees[p] % 2 != want:
                    continue
                c = rng.randint(-1, 1)
                if c:
                    val[p] = Fraction(c)
            phi.set_value(r, key, val)
    return phi


def test_criterion_8_chain_level_identities():
    rng = random.Random(2026)
    for name in AINFTY_CORPUS:
        A = load_example(name)
        # relations up to arity 4
        assert not ainfty_residuals(A, 4), name
        # opposite involutive
        assert opposite(opposite(A)).ops == A.ops, name
        # cohomology of the opposite is the graded opposite (Koszul signs)
        H = cohomology(A)
        Hop = cohomology(opposite(A))
        assert Hop.basis_mult == H.graded_opposite().basis_mult, name
        # Hochschild differential squares to zero within the window, cap 4
        diag = diagonal_bimodule(A)
        for degree in (0, 1):
            phi = _random_diag_cochain(rng, A, 4, degree)
            twice = hochschild_diff(A, diag, hochschild_diff(A, diag, phi))
            assert twice.is_zero_within(twice.window()), (name, degree)
        if A.unit is None:
            continue
        # theta is a chain map and Pi o theta(c) = mu^2(e, c) for basis c
        M = self_module(A)
        P = hom_bimodule(M, M)
        F = A.field
        for c_idx in range(A.dim):
            c = [F.one if i == c_idx else F.zero for i in range(A.dim)]
            th = theta_map(A, c, cap=3)
            lhs = hochschild_diff(A, P, th, cap=3)
            mu1c = A.op(1, (c_idx,))
            dense = [mu1c.get(i, F.zero) for i in range(A.dim)]
            rhs = (theta_map(A, dense, cap=3)
                   if any(x != F.zero for x in dense) else None)
            for r in range(lhs.window() + 1):
                for key in itertools.product(range(A.dim), repeat=r):
                    want = rhs.value(r, key) if rhs else {}
                    assert lhs.value(r, key) == want, (name, c_idx)
            mu2 = A.op(2, (A.unit, c_idx))
            want_vec = [mu2.get(i, F.zero) for i in range(A.dim)]
            assert pi_map(A, th) == want_vec, (name, c_idx)
    # graded-commutative dgas are fixed by the opposite on the nose
    for name in ("lambda_x", "lambda_xy", "dga3"):
        A = load_example(name)
        assert opposite(A).ops == A.ops
    announce(8, "A-infinity residuals 0 to arity 4, opposite involutive and "
                "fixing graded-commutative dgas, H(A^op) = H(A)^op, "
                "mu_CC^2 = 0 at cap 4, theta chain map, Pi(theta(c)) = "
                "mu^2(e, c) on the shipped corpus")
