import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import PRODUCT_PAIRS, dp6, ladder, lpoly
from floergen import linalg
from floergen.algebra import FiniteAlgebra, krylov_min_poly
from floergen.errors import AnomalyError, UsageError
from floergen.grobner import Morphism, algebra_morphism, laurent_quotient
from floergen import quantum
from floergen.laurent import LaurentRing
from floergen.quantum import (
    c1_element,
    c1_spectrum,
    classical_cohomology,
    co0_map,
    critical_points,
    jacobian_ring,
    qh_presentation,
    s_mod_m2,
    toric_generation_report,
)
from floergen.scalar import QQ, PrimeField, UniPoly, rational_roots
from floergen.toric import corpus, minimal_chern, polytope_product, superpotential
from toric_gen_oracles import rational_summands_by_blocks

FIELDS = ["Q", "F2", "F3", "F5", "F7"]


def field_of(s):
    return QQ if s == "Q" else PrimeField(int(s[1:]))


def quadric_W(field):
    R = LaurentRing(["x", "y", "z"], field)
    return lpoly(R, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                     (-1, -1, 0): 1, (0, -1, -1): 1})


def test_jacobian_ring_cp1():
    R = LaurentRing(["z"], QQ)
    jac = jacobian_ring(lpoly(R, {(1,): 1, (-1,): 1}))
    assert jac.dim == 2
    # k[z]/(z^2 - 1)
    assert all(c == 0 for c in jac.nf_coords(lpoly(R, {(2,): 1, (0,): -1})))


def test_jacobian_ring_quadric_F5():
    jac = jacobian_ring(quadric_W(PrimeField(5)))
    assert jac.dim == 3
    R = jac.source_ring
    x = R.variable(0)
    assert all(c == 0 for c in jac.nf_coords(x * x * x - R.constant(3)))


def test_jacobian_ring_cp2_F7():
    W = superpotential(corpus()["CP2"], PrimeField(7))
    assert jacobian_ring(W).dim == 3


def test_qh_presentation_cp2_F7():
    pres = qh_presentation(corpus()["CP2"], PrimeField(7))
    assert pres.dim == 3
    # isomorphic to F7[Z]/(Z^3 - 1): map Z -> Z1
    F7 = PrimeField(7)
    Rz = LaurentRing(["Z"], F7)
    cyclic = laurent_quotient([lpoly(Rz, {(3,): 1, (0,): -1})])
    ring = pres.source_ring
    mor = algebra_morphism(cyclic, pres, [ring.variable(0)])
    assert mor.well_defined and mor.kernel_dim == 0 and mor.surjective


def test_qh_presentation_cp2_mod2_weights():
    F2 = PrimeField(2)
    pres = qh_presentation(corpus()["CP2"], F2, "mod2_weights")
    assert pres.dim == 6
    # isomorphic to F2[Z]/(Z^6 - 1)
    Rz = LaurentRing(["Z"], F2)
    cyclic = laurent_quotient([lpoly(Rz, {(6,): 1, (0,): 1})])
    ring = pres.source_ring
    mor = algebra_morphism(cyclic, pres, [ring.variable(0)])
    assert mor.well_defined and mor.kernel_dim == 0 and mor.surjective


def test_qh_presentation_cp1xcp1_plain_F2():
    pres = qh_presentation(corpus()["CP1xCP1"], PrimeField(2))
    assert pres.dim == 4


def test_qh_mod2_requires_F2():
    with pytest.raises(UsageError):
        qh_presentation(corpus()["CP2"], PrimeField(3), "mod2_weights")
    with pytest.raises(UsageError):
        qh_presentation(corpus()["CP2"], QQ, "mod2_weights")


def test_monomial_relation_basis_generates_all():
    # (Z^A - 1) Z^B + (Z^B - 1) = Z^{A+B} - 1: random combinations of basis
    # sphere classes reduce to zero in the plain presentation
    from floergen.toric import h2_lattice

    rng = random.Random(13)
    for name in ("CP2", "CP1xCP1"):
        P = corpus()[name]
        pres = qh_presentation(P, PrimeField(5))
        ring = pres.source_ring
        basis = h2_lattice(P).basis
        for _ in range(6):
            combo = [0] * P.num_facets
            for p in basis:
                c = rng.randint(-2, 2)
                combo = [a + c * b for a, b in zip(combo, p)]
            rel = ring.monomial(tuple(combo)) - ring.one()
            assert all(c == 0 for c in pres.nf_coords(rel))


@pytest.mark.parametrize("name", ["CP1", "CP2", "CP3", "CP1xCP1", "CP1xCP1xCP1"])
@pytest.mark.parametrize("fs", FIELDS)
def test_co0_isomorphism_property(name, fs):
    P = corpus()[name]
    pres, jac, mor = co0_map(P, field_of(fs))
    assert mor.well_defined
    assert mor.kernel_dim == 0
    assert mor.surjective
    assert pres.dim == jac.dim


@pytest.mark.parametrize("name", ["CP2", "CP1xCP1", "CP1xCP1xCP1"])
@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["F7", "Q"])
def test_co0_columns_match_laurent_products(name, field):
    # oracle for the memoized walk: the column of a staircase monomial
    # Z^e (signed e) is the normal form of prod_j (z^{nu_j})^{e_j}, built
    # with LaurentPoly arithmetic alone
    P = corpus()[name]
    qh, jac, mor = co0_map(P, field)
    ring = jac.source_ring
    N = P.num_facets
    for k, mono in enumerate(qh.staircase):
        prod = ring.one()
        for j, nu in enumerate(P.normals):
            e = mono[N + j] - mono[j]
            step = ring.monomial(tuple(nu if e > 0 else [-x for x in nu]))
            prod = prod * step ** abs(e)
        assert [mor.columns[k].get(t, 0) for t in range(jac.dim)] == jac.nf_coords(prod)


def test_jacobian_dim_equals_cohomology_total():
    for name, P in corpus().items():
        dims = classical_cohomology(P, QQ)
        jac = jacobian_ring(superpotential(P, QQ))
        assert jac.dim == sum(dims)


def test_c1_element_cp2_jac_F7():
    F7 = PrimeField(7)
    P = corpus()["CP2"]
    jac = jacobian_ring(superpotential(P, F7))
    c1 = c1_element("jac", P, F7, jac)
    z1 = jac.nf_coords(jac.source_ring.variable(0))
    assert c1 == [F7.mul(3, c) for c in z1]


def test_c1_element_cp1_jac_Q():
    P = corpus()["CP1"]
    jac = jacobian_ring(superpotential(P, QQ))
    c1 = c1_element("jac", P, QQ, jac)
    z = jac.nf_coords(jac.source_ring.variable(0))
    assert c1 == [2 * c for c in z]


def test_c1_element_qh_side():
    F7 = PrimeField(7)
    P = corpus()["CP2"]
    pres = qh_presentation(P, F7)
    c1 = c1_element("qh", P, F7, pres)
    z1 = pres.nf_coords(pres.source_ring.variable(0))
    assert c1 == [F7.mul(3, c) for c in z1]


def test_quadric_H_maps_to_2x():
    # c1 = 3H and the superpotential class is 6x, so H goes to 2x
    for field in (QQ, PrimeField(5)):
        jac = jacobian_ring(quadric_W(field))
        R = jac.source_ring
        w = jac.nf_coords(quadric_W(field))
        x = jac.nf_coords(R.variable(0))
        assert w == [field.mul(field.from_int(6), c) for c in x]
        third = field.inv(field.from_int(3))
        h_image = [field.mul(third, c) for c in w]
        assert h_image == [field.mul(field.from_int(2), c) for c in x]


def test_c1_spectrum_cp1_Q():
    P = corpus()["CP1"]
    jac = jacobian_ring(superpotential(P, QQ))
    spec = c1_spectrum(jac, c1_element("jac", P, QQ, jac))
    assert spec.char_poly == UniPoly(QQ, [-4, 0, 1])
    assert spec.factors == [(Fraction(2), 1), (Fraction(-2), 1)]
    assert [d for _, d in spec.eigenspaces] == [1, 1]


def test_c1_spectrum_cp2_Q():
    P = corpus()["CP2"]
    jac = jacobian_ring(superpotential(P, QQ))
    spec = c1_spectrum(jac, c1_element("jac", P, QQ, jac))
    assert spec.char_poly == UniPoly(QQ, [-27, 0, 0, 1])
    assert spec.factors == [(Fraction(3), 1)]
    assert spec.residual == UniPoly(QQ, [9, 3, 1])


def test_c1_spectrum_cp2_F7():
    F7 = PrimeField(7)
    P = corpus()["CP2"]
    jac = jacobian_ring(superpotential(P, F7))
    spec = c1_spectrum(jac, c1_element("jac", P, F7, jac))
    assert spec.char_poly == UniPoly(F7, [-6, 0, 0, 1])
    roots = sorted(F7.neg(f.coeffs[0]) for f, _ in spec.factors)
    assert roots == [3, 5, 6]
    assert sum(d for _, d in spec.eigenspaces) == jac.dim


def test_c1_spectrum_eigenspace_dims_from_factors():
    # CP2 over F5: t^3 - 2 = (t - 3)(t^2 + 3t + 4), the quadratic irreducible
    F5 = PrimeField(5)
    P = corpus()["CP2"]
    jac = jacobian_ring(superpotential(P, F5))
    spec = c1_spectrum(jac, c1_element("jac", P, F5, jac))
    assert [(f.degree, m) for f, m in spec.factors] == [(1, 1), (2, 1)]
    assert [d for _, d in spec.eigenspaces] == [1, 2]
    # CP1xCP1 over Q: t^4 - 16 t^2, the root 0 twice
    P = corpus()["CP1xCP1"]
    jac = jacobian_ring(superpotential(P, QQ))
    spec = c1_spectrum(jac, c1_element("jac", P, QQ, jac))
    assert spec.factors == [(Fraction(4), 1), (Fraction(0), 2), (Fraction(-4), 1)]
    assert spec.eigenspaces == [("4", 1), ("0", 2), ("-4", 1)]
    for name, P in corpus().items():
        for fs in FIELDS:
            field = field_of(fs)
            jac = jacobian_ring(superpotential(P, field))
            spec = c1_spectrum(jac, c1_element("jac", P, field, jac))
            assert sum(d for _, d in spec.eigenspaces) == jac.dim, (name, fs)


def test_critical_points_are_checked_against_the_jacobian_generators():
    """The log-derivatives the Jacobian ring stored are the check: with one
    of them shifted by a constant, every point fails it, named by index."""
    F7 = PrimeField(7)
    jac = jacobian_ring(superpotential(corpus()["CP2"], F7))
    assert len(quantum._critical_points(jac, 0).points) == 3
    jac.source_gens[1] = jac.source_gens[1] + jac.source_ring.one()
    with pytest.raises(AnomalyError, match="log-derivative 1$"):
        quantum._critical_points(jac, 0)


def test_critical_points_cp2_F7():
    W = superpotential(corpus()["CP2"], PrimeField(7))
    cp = critical_points(W)
    assert sorted(map(tuple, cp.points)) == [(1, 1), (2, 2), (4, 4)]
    assert not cp.nonsplit


def test_critical_points_cp1_F2():
    W = superpotential(corpus()["CP1"], PrimeField(2))
    cp = critical_points(W)
    assert len(cp.factors) == 1
    f = cp.factors[0]
    assert f.dim == 2 and f.residue_degree == 1 and f.point == [1]
    assert cp.points == [[1]]


def test_critical_points_quadric_F5():
    cp = critical_points(quadric_W(PrimeField(5)))
    assert cp.points == [[2, 4, 2]]
    assert [(f.dim, f.residue_degree) for f in cp.nonsplit] == [(2, 2)]


def test_critical_values_are_c1_eigenvalues():
    for name in ("CP1", "CP2", "CP1xCP1"):
        for p in (5, 7):
            field = PrimeField(p)
            P = corpus()[name]
            W = superpotential(P, field)
            jac = jacobian_ring(W)
            chi = linalg.charpoly(field, jac.element_mult_matrix(jac.nf_coords(W)))
            for pt in critical_points(W).points:
                assert chi.evaluate(W.evaluate(pt)) == field.zero


def test_generation_report_cp2_F7():
    rep = toric_generation_report(corpus()["CP2"], PrimeField(7))
    assert not rep.anomaly
    assert rep.minimal_chern == 3
    assert len(rep.summands) == 3
    points = sorted(tuple(s.point) for s in rep.summands)
    assert points == [(1, 1), (2, 2), (4, 4)]
    values = sorted(s.critical_value for s in rep.summands)
    assert values == [3, 5, 6]
    assert all(s.verdict == "split-generates" for s in rep.summands)
    assert all(s.kernel_dim == 0 for s in rep.summands)


def test_generation_report_cp2_F2():
    rep = toric_generation_report(corpus()["CP2"], PrimeField(2))
    assert [(s.dim, s.residue_degree) for s in rep.summands] == [(1, 1), (2, 2)]
    assert rep.summands[1].verdict == "nonsplit"
    assert "F_4" in rep.summands[1].statement


def test_generation_report_cp1_Q():
    rep = toric_generation_report(corpus()["CP1"], QQ)
    assert len(rep.summands) == 2
    assert sorted(s.critical_value for s in rep.summands) == [-2, 2]
    assert sorted(tuple(s.point) for s in rep.summands) == [(-1,), (1,)]
    assert all(s.verdict == "split-generates" for s in rep.summands)


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["F7", "Q"])
def test_generation_report_dp6(field):
    rep = toric_generation_report(dp6(), field)
    assert not rep.anomaly
    co0 = rep.co0
    assert co0.well_defined and co0.kernel_dim == 0 and co0.surjective
    assert co0.domain_dim == co0.codomain_dim == 6
    assert sum(s.dim for s in rep.summands) == 6


def test_generation_report_json_schema():
    rep = toric_generation_report(corpus()["CP2"], PrimeField(7))
    data = rep.to_json()
    assert data["field"] == "F7"
    assert data["minimal_chern"] == 3
    assert data["co0"]["kernel_dim"] == 0 and data["co0"]["surjective"]
    s = data["summands"][0]
    assert set(s) >= {"dim", "residue_degree", "point", "critical_value", "verdict"}


def test_s_mod_m2_examples():
    F3 = PrimeField(3)
    qa, checks = s_mod_m2(1, [F3.one], F3)
    assert checks["ok"] and qa.dim == 2
    R = qa.source_ring
    zm1 = R.variable(0) - R.one()
    v = qa.nf_coords(zm1)
    assert all(c == 0 for c in qa.element_product(v, v))

    F2 = PrimeField(2)
    qa, checks = s_mod_m2(2, [F2.one, F2.one], F2)
    assert checks["ok"] and qa.dim == 3

    F7 = PrimeField(7)
    qa, checks = s_mod_m2(1, [F7.from_int(2)], F7)
    assert checks["ok"] and qa.dim == 2


def test_s_mod_m2_structure_sweep():
    # dim n+1 and m^2 = 0 for n <= 3, trivial and nontrivial local systems
    cases = {2: [1, 1, 1], 3: [1, 2, 1], 7: [3, 1, 5]}
    for p, rho_full in cases.items():
        field = PrimeField(p)
        for n in (1, 2, 3):
            rho = [field.from_int(r) for r in rho_full[:n]]
            qa, checks = s_mod_m2(n, rho, field)
            assert qa.dim == n + 1
            assert checks["m_squared_zero"] and checks["square_zero_extension"]


def test_s_mod_m2_rejects_zero_monodromy():
    F3 = PrimeField(3)
    with pytest.raises(UsageError):
        s_mod_m2(1, [F3.zero], F3)


def test_mod2_dim_identity_over_corpus():
    F2 = PrimeField(2)
    for name, P in corpus().items():
        plain = qh_presentation(P, F2)
        mod2 = qh_presentation(P, F2, "mod2_weights")
        assert mod2.dim == 2 ** (P.num_facets - P.n) * plain.dim


def test_toric_generation_builds_jacobian_ring_once(monkeypatch):
    built = []
    original = quantum.jacobian_ring

    def counted(W, budget=None):
        built.append(W)
        return original(W, budget)

    monkeypatch.setattr(quantum, "jacobian_ring", counted)
    report = toric_generation_report(corpus()["CP2"], PrimeField(7))
    assert not report.anomaly and len(report.summands) == 3
    assert len(built) == 1


@pytest.mark.parametrize("name", ["CP2", "CP1xCP1"])
def test_rational_report_computes_one_krylov_min_poly(name, monkeypatch):
    # one Krylov minimal polynomial of c1 per report, and no charpoly call
    calls, charpolys = [], []
    original = quantum.krylov_min_poly

    def counted(A, u, v):
        calls.append((A.dim, u))
        return original(A, u, v)

    monkeypatch.setattr(quantum, "krylov_min_poly", counted)
    monkeypatch.setattr(linalg, "charpoly", lambda F, m: charpolys.append(len(m)))
    report = toric_generation_report(corpus()[name], QQ)
    assert not report.anomaly
    W = superpotential(corpus()[name], QQ)
    assert calls == [(report.co0.codomain_dim, jacobian_ring(W).nf_coords(W))]
    assert charpolys == []


@pytest.mark.parametrize("name", list(ladder()))
def test_rational_report_builds_one_multiplication_matrix_per_summand(name, monkeypatch):
    # c1's minimal polynomial and CRT split step with sparse products; the
    # only dense matrix is each summand idempotent's, read for its rank
    built, split = [], []
    original_matrix, original_split = FiniteAlgebra.mult_matrix, quantum.split_along

    def recorded_matrix(self, u):
        built.append(list(u))
        return original_matrix(self, u)

    def recorded_split(A, u, e, factors):
        out = original_split(A, u, e, factors)
        split.extend(out)
        return out

    monkeypatch.setattr(FiniteAlgebra, "mult_matrix", recorded_matrix)
    monkeypatch.setattr(quantum, "split_along", recorded_split)
    report = toric_generation_report(ladder()[name], QQ)
    assert not report.anomaly
    assert built == split and len(built) == len(report.summands)


def cusp_times(other):
    """W = z^3/3 - z^2 + z, plus W_other in further variables: z dW/dz is
    z (z - 1)^2, so the Jacobian ring is Q[z]/(z - 1)^2 (tensor Jac W_other),
    not semisimple, and W is 1/3 on the first factor."""
    rest = len(other[0]) if other else 0
    R = LaurentRing([f"z{i + 1}" for i in range(1 + rest)], QQ)
    terms = [((k,) + (0,) * rest, c) for k, c in ((3, Fraction(1, 3)), (2, -1), (1, 1))]
    return R.from_terms(terms + [((0,) + tuple(nu), 1) for nu in other])


@pytest.mark.parametrize("other, summands", [
    # c1 = 1/3: minimal polynomial t - 1/3, characteristic (t - 1/3)^2; z
    # is not a scalar on the summand, so it has no point
    ([], [(2, None, Fraction(1, 3))]),
    # times CP1 (w + 1/w): c1 = 1/3 + w + 1/w, minimal polynomial
    # (t - 7/3)(t + 5/3), characteristic polynomial its square
    ([[1], [-1]], [(2, None, Fraction(7, 3)), (2, None, Fraction(-5, 3))]),
], ids=["cusp", "cusp-x-CP1"])
def test_rational_summands_match_charpoly_route_off_semisimple(other, summands):
    W = cusp_times(other)
    jac = jacobian_ring(W)
    A = jac.finite_algebra()
    c1 = jac.nf_coords(W)
    mu = krylov_min_poly(A, c1, A.unit)
    assert linalg.charpoly(QQ, A.mult_matrix(c1)) == mu * mu
    got = quantum._rational_summands(W, jac)
    assert got == rational_summands_by_blocks(W, jac)
    assert [(s.dim, s.point, s.critical_value) for s in got] == summands
    assert all(s.verdict == "split-generates" for s in got)


def test_rational_complement_summand_cp2():
    # chi = t^3 - 27 = (t - 3)(t^2 + 3t + 9): the complement is the residual's block
    rep = toric_generation_report(corpus()["CP2"], QQ)
    assert [(s.dim, s.verdict) for s in rep.summands] == [
        (1, "split-generates"), (2, "nonsplit")]
    assert rep.to_json()["summands"] == [
        {"critical_value": "3", "dim": 1, "kernel_dim": 0, "point": ["1", "1"],
         "residue_degree": 1, "statement": quantum._SPLIT_STATEMENT,
         "verdict": "split-generates"},
        {"critical_value": None, "dim": 2, "kernel_dim": 0, "point": None,
         "residue_degree": 0,
         "statement": "complementary summand for the irrational part of the "
                      "first-Chern-class spectrum; no rational critical local system",
         "verdict": "nonsplit"},
    ]


def test_rational_summand_dims_are_checked(monkeypatch):
    # a residual idempotent that misses its block must trip the summand-sum check
    original = quantum.split_along

    def lossy(A, u, idempotent, factors):
        out = original(A, u, idempotent, factors)
        return out[:-1] + [[A.field.zero] * len(idempotent)]

    monkeypatch.setattr(quantum, "split_along", lossy)
    with pytest.raises(AnomalyError):
        toric_generation_report(corpus()["CP2"], QQ)


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["F7", "Q"])
def test_toric_generation_builds_jacobian_algebra_once(field, monkeypatch):
    built = []
    original = FiniteAlgebra.from_quotient.__func__

    def counted(cls, qa):
        built.append(qa.dim)
        return original(cls, qa)

    monkeypatch.setattr(FiniteAlgebra, "from_quotient", classmethod(counted))
    report = toric_generation_report(corpus()["CP2"], field)
    assert not report.anomaly
    assert built == [report.co0.codomain_dim]


# rungs whose rational summands include a split summand with no point (the
# critical value 0 summand of dim 2 on CP1xCP1) and a complement summand (CP2)
RATIONAL_COVERS = {
    "CP1xCP1": (2, None, 0, "split-generates"),
    "CP2": (2, None, None, "nonsplit"),
}


@pytest.mark.parametrize("name", list(ladder()))
def test_ladder_jacobian_rings_over_q_are_ints(name):
    """Every ladder Jacobian ring is integral over Q: the reduced Groebner
    basis, every basis_mult entry, the unit, c1's matrix and charpoly(c1)
    are ints, not Fractions, so the Q path runs on native ints."""
    W = superpotential(ladder()[name], QQ)
    jac = jacobian_ring(W)
    A = jac.finite_algebra()
    m = A.mult_matrix(jac.nf_coords(W))
    entries = [c for g in jac.gb for c in g.values()]
    entries += [x for cols in A.basis_mult for col in cols for x in col.values()]
    entries += [x for row in m for x in row]
    entries += A.unit + linalg.charpoly(QQ, m).coeffs
    assert {type(x) for x in entries} == {int}


@pytest.mark.parametrize("name", list(ladder()))
def test_rational_summands_read_from_idempotents_match_blocks(name):
    W = superpotential(ladder()[name], QQ)
    jac = jacobian_ring(W)
    summands = quantum._rational_summands(W, jac)
    assert summands == rational_summands_by_blocks(W, jac)
    if name in RATIONAL_COVERS:
        assert RATIONAL_COVERS[name] in [
            (s.dim, s.point, s.critical_value, s.verdict) for s in summands]


# Jac(W_P + W_Q) is Jac(W_P) tensor Jac(W_Q) for the product P x Q, whose
# superpotential is W_P + W_Q in disjoint variables; pairs of ladder rungs
# with total dim at most 16, over Q and F7
def kronecker_sum(F, a, b):
    """a x 1 + 1 x b on the tensor product, basis pair (i, j) at i * len(b) + j."""
    p, q = len(a), len(b)
    return [[F.add(a[i][k] if j == l else F.zero, b[j][l] if i == k else F.zero)
             for k in range(p) for l in range(q)]
            for i in range(p) for j in range(q)]


def c1_matrix(P, field):
    W = superpotential(P, field)
    jac = jacobian_ring(W)
    return jac.finite_algebra().mult_matrix(jac.nf_coords(W))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("names", PRODUCT_PAIRS, ids=["x".join(p) for p in PRODUCT_PAIRS])
def test_product_summands_come_from_factor_summands(names, field):
    P, Q = (ladder()[name] for name in names)
    rep_p, rep_q = (toric_generation_report(X, field) for X in (P, Q))
    rep = toric_generation_report(polytope_product(P, Q), field)
    assert not rep.anomaly
    assert rep.co0.codomain_dim == rep_p.co0.codomain_dim * rep_q.co0.codomain_dim
    assert rep.minimal_chern == gcd(minimal_chern(P), minimal_chern(Q))
    split = [s for s in rep.summands if s.verdict == "split-generates"]
    if field == QQ:
        # c1 acts as c1_P x 1 + 1 x c1_Q, so the summand at a rational value v
        # has dim sum_{lam + mu = v} d_P(lam) d_Q(mu) over all eigenvalues,
        # the multiplicity of v in the characteristic polynomial of that sum
        chi = linalg.charpoly(QQ, kronecker_sum(QQ, c1_matrix(P, QQ), c1_matrix(Q, QQ)))
        assert sorted((s.critical_value, s.dim) for s in split) == sorted(rational_roots(chi))
    else:
        # a local factor of the tensor product has residue field F7 exactly
        # when both of its factors do
        pairs = Counter((tuple(a.point + b.point), a.dim * b.dim,
                         field.add(a.critical_value, b.critical_value))
                        for a in rep_p.summands if a.verdict == "split-generates"
                        for b in rep_q.summands if b.verdict == "split-generates")
        assert Counter((tuple(s.point), s.dim, s.critical_value) for s in split) == pairs


def test_toric_gen_reports_a_co0_that_is_no_isomorphism(monkeypatch):
    monkeypatch.setattr(quantum, "algebra_morphism", lambda domain, codomain, images:
                        Morphism(True, None, None, 1, domain.dim, codomain.dim))
    rep = toric_generation_report(corpus()["CP2"], PrimeField(7))
    assert rep.anomaly and rep.summands == []
    assert rep.notes == ["divisor-to-boundary map is not an isomorphism; "
                         "out-of-contract input or implementation bug"]
    assert rep.to_json()["co0"]["kernel_dim"] == 1
