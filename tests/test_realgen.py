import dataclasses
import random
import types

import pytest

from conftest import dense_bit_rows, dp6, ladder, lpoly, reparametrised
from floergen import linalg, realgen
from floergen.errors import AnomalyError, UsageError
from floergen.quantum import qh_presentation
from floergen.realgen import (
    F2,
    frobenius_matrix,
    real_gen_data,
    real_generation_report,
)
from floergen.scalar import PrimeField
from floergen.toric import corpus, h2_lattice


def test_reduction_pi_cp2():
    P = corpus()["CP2"]
    data = real_gen_data(P)
    assert data.qh_r.dim == 6 and data.qh.dim == 3
    ker_pi = linalg.kernel_basis(F2, data.pi.matrix)
    assert data.pi_kernel_dim == len(ker_pi) == 3
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
    assert data.pi_kernel_dim == len(linalg.kernel_basis(F2, data.pi.matrix)) == 2


def test_reduction_pi_cp1xcp1():
    data = real_gen_data(corpus()["CP1xCP1"])
    assert data.qh_r.dim == 16 and data.qh.dim == 4
    # rank-nullity with surjectivity
    assert data.pi_kernel_dim == len(linalg.kernel_basis(F2, data.pi.matrix)) == 12
    assert data.pi.surjective


def test_frobenius_matrix_cp2():
    P = corpus()["CP2"]
    qh_r = qh_presentation(P, F2, "mod2_weights")
    frob = dense_bit_rows(frobenius_matrix(qh_r), qh_r.dim)
    qa = qh_r
    # 1 -> 1
    unit = qa.unit_coords()
    assert linalg.mat_vec(F2, frob, unit) == unit
    # kernel dim 3, image spanned by even powers of the cyclic generator
    ker = linalg.kernel_basis(F2, frob)
    assert len(ker) == 3
    img = linalg.image_basis(F2, frob)
    assert len(img) == 3
    ring = qa.source_ring
    evens = [qa.nf_coords(ring.monomial((2 * k, 0, 0))) for k in range(3)]
    assert linalg.subspace_contained(F2, evens, img)


def test_frobenius_cp1_kernel_basis():
    qh_r = qh_presentation(corpus()["CP1"], F2, "mod2_weights")
    qa = qh_r
    frob = dense_bit_rows(frobenius_matrix(qh_r), qh_r.dim)
    ker = linalg.kernel_basis(F2, frob)
    ring = qa.source_ring
    expected = [
        qa.nf_coords(lpoly(ring, {(0, 0): 1, (2, 0): 1})),  # 1 + Z^2
        qa.nf_coords(lpoly(ring, {(1, 0): 1, (3, 0): 1})),  # Z + Z^3
    ]
    assert linalg.subspace_contained(F2, ker, expected)
    assert linalg.subspace_contained(F2, expected, ker)


def reference_frobenius(qa):
    """Squaring as `frobenius_matrix` built it before the staircase walk: one
    normal form of x^(2e) per staircase monomial x^e."""
    return linalg.transpose(
        [qa.nf_coords({tuple(2 * e for e in mono): qa.field.one}) for mono in qa.staircase])


@pytest.mark.parametrize("name", ["CP1", "CP1xCP1", "CP1^3", "CP1^4", "dP6",
                                  "CP2xCP1-sheared"])
def test_frobenius_walk_matches_squared_monomials(name):
    P = {"dP6": dp6, "CP2xCP1-sheared": reparametrised}.get(name, lambda: ladder()[name])()
    qh_r = qh_presentation(P, F2, "mod2_weights")
    assert dense_bit_rows(frobenius_matrix(qh_r), qh_r.dim) == reference_frobenius(qh_r)


def test_frobenius_needs_characteristic_2():
    qa = qh_presentation(corpus()["CP1"], PrimeField(3))
    with pytest.raises(UsageError, match="characteristic 2"):
        frobenius_matrix(qa)


def test_frobenius_is_squaring_linearly():
    rng = random.Random(31)
    qh_r = qh_presentation(corpus()["CP1xCP1"], F2, "mod2_weights")
    qa = qh_r
    frob = dense_bit_rows(frobenius_matrix(qh_r), qh_r.dim)
    for _ in range(8):
        u = [rng.randrange(2) for _ in range(qa.dim)]
        v = [rng.randrange(2) for _ in range(qa.dim)]
        assert linalg.mat_vec(F2, frob, u) == qa.element_product(u, u)
        s = [F2.add(a, b) for a, b in zip(u, v)]
        lhs = linalg.mat_vec(F2, frob, s)
        rhs = [F2.add(a, b) for a, b in zip(
            linalg.mat_vec(F2, frob, u), linalg.mat_vec(F2, frob, v))]
        assert lhs == rhs


def test_kernel_containment_and_equality():
    for name in ("CP1", "CP2", "CP3", "CP1xCP1"):
        data = real_gen_data(corpus()[name])
        assert data.contained
        ker_f = linalg.kernel_basis(F2, dense_bit_rows(data.frobenius, data.qh_r.dim))
        ker_pi = linalg.kernel_basis(F2, data.pi.matrix)
        assert (data.frobenius_kernel_dim, data.pi_kernel_dim) == (len(ker_f), len(ker_pi))
        # the sharper fact: both kernels coincide
        assert linalg.subspace_contained(F2, ker_pi, ker_f)
        assert linalg.subspace_contained(F2, ker_f, ker_pi)


def test_pi_row_outside_frobenius_rowspace_flips_containment(monkeypatch):
    P = corpus()["CP2"]
    data = real_gen_data(P)
    assert data.contained
    frob, rows = dense_bit_rows(data.frobenius, data.qh_r.dim), data.pi.matrix
    rank_f = linalg.rank(F2, frob)
    escape = next(e for e in linalg.identity(F2, data.qh_r.dim)
                  if linalg.rank(F2, frob + [e]) > rank_f)
    matrix = [[F2.add(x, y) for x, y in zip(rows[0], escape)]] + rows[1:]
    bad = dataclasses.replace(
        data.pi, matrix=matrix, kernel_dim=data.qh_r.dim - linalg.rank(F2, matrix))
    assert realgen.kernel_containment_check(data.pi, data.frobenius)[2]
    assert not realgen.kernel_containment_check(bad, data.frobenius)[2]
    monkeypatch.setattr(realgen, "reduction_pi", lambda qh_r, qh: bad)
    rep = real_generation_report(P)
    assert rep.anomaly and rep.extra["containment"] is False
    assert rep.summands == []


def test_pi_kills_weight_monomials():
    # (Z^A - 1) * basis monomial maps to zero under pi for sphere classes A
    for name in ("CP2", "CP1xCP1"):
        P = corpus()[name]
        data = real_gen_data(P)
        qa = data.qh_r
        ring = qa.source_ring
        for A in h2_lattice(P).basis:
            rel = ring.monomial(tuple(A)) - ring.one()
            rel_coords = qa.nf_coords(rel)
            for j in range(qa.dim):
                basis_vec = [F2.one if i == j else F2.zero for i in range(qa.dim)]
                prod = qa.element_product(rel_coords, basis_vec)
                image = linalg.mat_vec(F2, data.pi.matrix, prod)
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
