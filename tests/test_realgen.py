import dataclasses
import random
import types

import pytest

from conftest import (PRODUCT_PAIRS, dense_columns, dense_matrix, dp6, ladder, lpoly,
                      pi_matrix, reparametrised, squaring_columns)
from floergen import linalg, realgen
from floergen.errors import AnomalyError, UsageError
from floergen.grobner import QuotientAlgebra, algebra_morphism
from floergen.quantum import qh_presentation
from floergen.realgen import (
    F2,
    frobenius_matrix,
    kernel_containment_check,
    real_gen_data,
    real_generation_report,
    reduction_pi,
)
from floergen.scalar import PrimeField
from floergen.toric import corpus, h2_lattice, polytope_product


def test_reduction_pi_cp2():
    P = corpus()["CP2"]
    data = real_gen_data(P)
    assert data.qh_r.dim == 6 and data.qh.dim == 3
    ker_pi = linalg.kernel_basis(F2, pi_matrix(data.qh_r, data.qh))
    assert data.pi.kernel_dim == len(ker_pi) == 3
    # kernel is (Z^3 + 1) * {1, Z, Z^2} inside F2[Z]/(Z^6 - 1)
    qa = data.qh_r
    ring = qa.source_ring
    expected = []
    for k in range(3):
        elem = lpoly(ring, {(3 + k, 0, 0): 1, (k, 0, 0): 1})
        expected.append(qa.nf_coords(elem))
    assert linalg.subspace_contained(F2, expected, ker_pi)
    assert linalg.subspace_contained(F2, ker_pi, expected)


def test_reduction_pi_cp1():
    data = real_gen_data(corpus()["CP1"])
    assert data.qh_r.dim == 4 and data.qh.dim == 2
    assert data.pi.kernel_dim == len(linalg.kernel_basis(F2, pi_matrix(data.qh_r, data.qh))) == 2


def test_reduction_pi_cp1xcp1():
    data = real_gen_data(corpus()["CP1xCP1"])
    assert data.qh_r.dim == 16 and data.qh.dim == 4
    # rank-nullity with surjectivity
    assert data.pi.kernel_dim == len(linalg.kernel_basis(F2, pi_matrix(data.qh_r, data.qh))) == 12
    assert data.pi.surjective


def test_frobenius_matrix_cp2():
    # the lift s: QH -> QH_R sends 1 to 1 and is injective; its image, like
    # that of squaring on QH_R, is spanned by the even powers of Z
    data = real_gen_data(corpus()["CP2"])
    qh, qa = data.qh, data.qh_r
    s = dense_matrix(data.lift)
    assert linalg.mat_vec(F2, s, qh.unit_coords()) == qa.unit_coords()
    assert data.lift.kernel_dim == 0 and not data.lift.surjective
    ring = qa.source_ring
    evens = [qa.nf_coords(ring.monomial((2 * k, 0, 0))) for k in range(3)]
    img = linalg.image_basis(F2, s)
    assert linalg.subspace_contained(F2, evens, img)
    assert linalg.subspace_contained(F2, img, evens)
    frob = dense_columns(squaring_columns(qa), qa.dim)
    assert len(linalg.kernel_basis(F2, frob)) == 3
    assert linalg.subspace_contained(F2, img, linalg.image_basis(F2, frob))


def test_frobenius_cp1_kernel_basis():
    data = real_gen_data(corpus()["CP1"])
    qa = data.qh_r
    frob = linalg.mat_mul(F2, dense_matrix(data.lift), pi_matrix(qa, data.qh))
    ker = linalg.kernel_basis(F2, frob)
    ring = qa.source_ring
    expected = [
        qa.nf_coords(lpoly(ring, {(0, 0): 1, (2, 0): 1})),  # 1 + Z^2
        qa.nf_coords(lpoly(ring, {(1, 0): 1, (3, 0): 1})),  # Z + Z^3
    ]
    assert linalg.subspace_contained(F2, ker, expected)
    assert linalg.subspace_contained(F2, expected, ker)


def reference_frobenius(qa):
    """Squaring as one normal form of x^(2e) per staircase monomial x^e."""
    return linalg.transpose(
        [qa.nf_coords({tuple(2 * e for e in mono): qa.field.one}) for mono in qa.staircase])


@pytest.mark.parametrize("name", ["CP1", "CP1xCP1", "CP1^3", "CP1^4", "dP6",
                                  "CP2xCP1-sheared"])
def test_frobenius_walk_matches_squared_monomials(name):
    """f_R three ways: per-monomial normal forms, the squaring walk on QH_R,
    and the matrix of s o pi, the factorization the real-locus check reads."""
    P = {"dP6": dp6, "CP2xCP1-sheared": reparametrised}.get(name, lambda: ladder()[name])()
    qh_r = qh_presentation(P, F2, "mod2_weights")
    qh = qh_presentation(P, F2, "plain")
    want = reference_frobenius(qh_r)
    assert dense_columns(squaring_columns(qh_r), qh_r.dim) == want
    s = dense_matrix(frobenius_matrix(qh, qh_r))
    assert linalg.mat_mul(F2, s, pi_matrix(qh_r, qh)) == want


def test_frobenius_needs_characteristic_2():
    qa = qh_presentation(corpus()["CP1"], PrimeField(3))
    with pytest.raises(UsageError, match="characteristic 2"):
        frobenius_matrix(qa, qa)


def test_frobenius_is_squaring_linearly():
    # s o pi squares every element of QH_R, and s is multiplicative on QH
    rng = random.Random(31)
    data = real_gen_data(corpus()["CP1xCP1"])
    qh, qa = data.qh, data.qh_r
    s, pi = dense_matrix(data.lift), pi_matrix(qa, qh)
    for _ in range(8):
        u = [rng.randrange(2) for _ in range(qa.dim)]
        assert linalg.mat_vec(F2, s, linalg.mat_vec(F2, pi, u)) == qa.element_product(u, u)
        a = [rng.randrange(2) for _ in range(qh.dim)]
        b = [rng.randrange(2) for _ in range(qh.dim)]
        assert linalg.mat_vec(F2, s, qh.element_product(a, b)) == qa.element_product(
            linalg.mat_vec(F2, s, a), linalg.mat_vec(F2, s, b))


def test_kernel_containment_and_equality():
    for name in ("CP1", "CP2", "CP3", "CP1xCP1"):
        data = real_gen_data(corpus()[name])
        ker_f_dim, ker_pi_dim, contained = kernel_containment_check(data.pi, data.lift)
        assert contained and data.lift.kernel_dim == 0
        ker_f = linalg.kernel_basis(F2, dense_columns(squaring_columns(data.qh_r), data.qh_r.dim))
        ker_pi = linalg.kernel_basis(F2, pi_matrix(data.qh_r, data.qh))
        assert (ker_f_dim, ker_pi_dim) == (len(ker_f), len(ker_pi))
        # the sharper fact: both kernels coincide
        assert linalg.subspace_contained(F2, ker_pi, ker_f)
        assert linalg.subspace_contained(F2, ker_f, ker_pi)


def test_lift_with_a_zeroed_column_flips_containment(monkeypatch):
    P = corpus()["CP2"]
    data = real_gen_data(P)
    assert kernel_containment_check(data.pi, data.lift)[2]
    # s sends 1 to 1; without that column its rank drops by one
    columns = [{}] + data.lift.columns[1:]
    rank = linalg.column_rank(F2, columns)
    assert rank == data.qh.dim - 1
    bad = dataclasses.replace(data.lift, columns=columns, kernel_dim=data.qh.dim - rank)
    assert kernel_containment_check(data.pi, bad) == (
        data.pi.kernel_dim + 1, data.pi.kernel_dim, False)
    monkeypatch.setattr(realgen, "frobenius_matrix", lambda qh, qh_r: bad)
    rep = real_generation_report(P)
    assert rep.anomaly and rep.extra["containment"] is False
    assert rep.summands == []


@pytest.mark.parametrize("words", ["Frobenius lift is not well defined"],
                         ids=["lift-ill-defined"])
def test_broken_maps_raise_anomalies(monkeypatch, words):
    """s: Z_j -> Z_j, unsquared, sends the relation Z_1 Z_2 = 1 of QH on
    CP1xCP1 to Z_1 Z_2, which is not 1 in QH_R."""
    P = corpus()["CP1xCP1"]
    original = realgen.algebra_morphism

    def mutated(domain, codomain, images):
        ring = codomain.source_ring
        return original(domain, codomain, [ring.variable(j) for j in range(ring.nvars)])

    monkeypatch.setattr(realgen, "algebra_morphism", mutated)
    with pytest.raises(AnomalyError, match=words):
        real_generation_report(P)


def test_the_lift_checks_its_relations_on_remainders(monkeypatch):
    """s on CP1^4 asks QH_R for no dense coordinate list, and the unsquared
    map still names the first relation of QH that it fails."""
    P = ladder()["CP1^4"]
    qh_r = qh_presentation(P, F2, "mod2_weights")
    qh = qh_presentation(P, F2, "plain")
    dense = []
    original = QuotientAlgebra.nf_coords

    def recorded(self, p):
        dense.append(self)
        return original(self, p)

    monkeypatch.setattr(QuotientAlgebra, "nf_coords", recorded)
    assert frobenius_matrix(qh, qh_r).kernel_dim == 0
    ring = qh_r.source_ring
    broken = algebra_morphism(qh, qh_r, [ring.variable(j) for j in range(ring.nvars)])
    assert not any(qa is qh_r for qa in dense)
    # the same relations, mapped by the identity of the Laurent ring
    failing = next(i for i, rel in enumerate(qh.source_gens)
                   if any(original(qh_r, ring.from_terms(rel.terms.items()))))
    assert not broken.well_defined and broken.failing_relation == failing


def test_reduction_pi_that_is_not_well_defined_is_an_anomaly():
    """The identity from plain weights to squared weights, the arguments
    swapped, is not a ring map: the plain relations are not squared-weight
    relations."""
    for name in ("CP1", "CP2", "CP1xCP1"):
        qh_r = qh_presentation(corpus()[name], F2, "mod2_weights")
        qh = qh_presentation(corpus()[name], F2, "plain")
        with pytest.raises(AnomalyError, match="reduction map is not well defined"):
            reduction_pi(qh, qh_r)


def test_reduction_pi_takes_its_kernel_from_the_dimensions(monkeypatch):
    """pi is onto by construction and builds no columns, so a real-gen report
    walks one ring map, the Frobenius lift."""
    calls = []
    original = realgen.algebra_morphism

    def counted(domain, codomain, images):
        calls.append((domain.dim, codomain.dim))
        return original(domain, codomain, images)

    monkeypatch.setattr(realgen, "algebra_morphism", counted)
    P = corpus()["CP1xCP1"]
    real_generation_report(P)
    assert calls == [(4, 16)]
    pi = real_gen_data(P).pi
    assert pi.columns is None and pi.surjective
    assert pi.kernel_dim == 16 - 4


def test_real_gen_data_keeps_no_tuple_view():
    """The quotient stores its staircase and basis packed; the exponent-tuple
    views are unpacked only when read."""
    data = real_gen_data(corpus()["CP1xCP1"])
    assert "staircase" not in vars(data.qh_r) and "gb" not in vars(data.qh_r)
    assert len(data.qh_r.staircase) == data.qh_r.dim
    assert "staircase" in vars(data.qh_r)


def ker_s(extra):
    return extra["frobenius_kernel_dim"] - extra["pi_kernel_dim"]


@pytest.mark.parametrize("names", PRODUCT_PAIRS, ids=["x".join(p) for p in PRODUCT_PAIRS])
def test_real_gen_on_products_from_factors(names):
    """QH and QH_R of P x Q are tensor products, and so is the lift s: the
    dimensions multiply, rank s multiplies, and s is injective on P x Q
    exactly when it is on both factors."""
    P, Q = (ladder()[name] for name in names)
    rp, rq, r = (real_generation_report(X).extra for X in (P, Q, polytope_product(P, Q)))
    assert r["dim_qh"] == rp["dim_qh"] * rq["dim_qh"]
    assert r["dim_qh_r"] == rp["dim_qh_r"] * rq["dim_qh_r"]
    rank_p, rank_q = rp["dim_qh"] - ker_s(rp), rq["dim_qh"] - ker_s(rq)
    assert ker_s(r) == r["dim_qh"] - rank_p * rank_q
    assert r["containment"] == (rp["containment"] and rq["containment"])


def test_pi_kills_weight_monomials():
    # (Z^A - 1) * basis monomial maps to zero under pi for sphere classes A
    for name in ("CP2", "CP1xCP1"):
        P = corpus()[name]
        data = real_gen_data(P)
        qa = data.qh_r
        ring = qa.source_ring
        pi = pi_matrix(qa, data.qh)
        for A in h2_lattice(P).basis:
            rel = ring.monomial(tuple(A)) - ring.one()
            rel_coords = qa.nf_coords(rel)
            for j in range(qa.dim):
                basis_vec = [F2.one if i == j else F2.zero for i in range(qa.dim)]
                prod = qa.element_product(rel_coords, basis_vec)
                image = linalg.mat_vec(F2, pi, prod)
                assert all(c == F2.zero for c in image)


def test_real_generation_reports():
    expectations = {"CP2": (3, 6, 3), "CP3": (4, 8, 4), "CP1xCP1": (2, 16, 4)}
    for name, (nx, dim_r, dim) in expectations.items():
        rep = real_generation_report(corpus()[name])
        assert not rep.anomaly
        assert rep.minimal_chern == nx
        assert rep.extra["dim_qh_r"] == dim_r
        assert rep.extra["dim_qh"] == dim
        assert rep.extra["containment"] is True
        assert rep.summands[0].verdict == "split-generates"
        data = rep.to_json()
        assert data["containment"] is True
        assert "pi_kernel_dim" in data and "frobenius_kernel_dim" in data


def test_cp1xcp1_qh_is_local_over_F2():
    # (Z_i + 1)^2 = 0 relations make the plain presentation local
    from floergen.algebra import FiniteAlgebra, local_decompose

    pres = qh_presentation(corpus()["CP1xCP1"], F2)
    A = FiniteAlgebra.from_quotient(pres)
    factors = local_decompose(A)
    assert len(factors) == 1
    assert factors[0].dim == 4


def test_real_report_checks_dimension_identity(monkeypatch):
    P = corpus()["CP2"]
    data = real_gen_data(P)
    data.qh_r = types.SimpleNamespace(dim=data.qh_r.dim - 1)
    monkeypatch.setattr(realgen, "real_gen_data", lambda P, budget=None: data)
    with pytest.raises(AnomalyError, match="2\\^\\(N-n\\)"):
        real_generation_report(P)
