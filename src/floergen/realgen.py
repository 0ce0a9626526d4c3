"""Characteristic-2 split-generation checker for the real locus of a monotone
toric manifold.

Builds the divisor presentation over F_2 with squared sphere-class weights
(QH_R) and with plain weights (QH), the reduction map pi (Z_j -> Z_j, well
defined because Z^{2A} - 1 = (Z^A - 1)^2 in characteristic 2), and the
squaring map f_R on QH_R, both by the staircase walk in `grobner`, f_R's
sparse columns packed straight into F_2 bit rows.  It decides ker f_R <=
ker pi in one F_2 echelon: f_R's rows first, then pi's, none of which may
add a pivot, with no kernel vector built.  Containment plus minimal Chern
number at least 2 yields the positive verdict for the real locus.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import AnomalyError, UsageError
from .grobner import (Budget, Morphism, QuotientAlgebra, _map_staircase,
                      algebra_morphism)
from .quantum import GenerationReport, GenerationSummand, qh_presentation
from .scalar import PrimeField
from .toric import DelzantPolytope, is_normalized, minimal_chern

F2 = PrimeField(2)


@dataclass
class RealGenData:
    qh_r: QuotientAlgebra
    qh: QuotientAlgebra
    pi: Morphism
    frobenius: list  # squaring on QH_R's staircase basis as F_2 bit rows
    pi_kernel_dim: int
    frobenius_kernel_dim: int
    contained: bool
    minimal_chern: int | None


def reduction_pi(qh_r: QuotientAlgebra, qh: QuotientAlgebra) -> Morphism:
    """The identity on divisor variables, from squared weights to plain."""
    ring = qh.source_ring
    images = [ring.variable(i) for i in range(ring.nvars)]
    mor = algebra_morphism(qh_r, qh, images)
    if not mor.well_defined:
        raise AnomalyError(
            "reduction map is not well defined; squared-weight relations "
            "must land in the plain ideal in characteristic 2"
        )
    if not mor.surjective:
        raise AnomalyError("reduction map is not surjective")
    return mor


def frobenius_matrix(qa: QuotientAlgebra):
    """Squaring, F_2-linear in characteristic 2, as bit rows: bit k of row t
    is coordinate t of the square of staircase monomial k.  It is the ring
    map x_v -> x_v * x_v, so its columns come from the staircase walk."""
    if qa.field.char != 2:
        raise UsageError("the squaring map is linear only in characteristic 2")
    rows = [0] * qa.dim
    for k, col in enumerate(_map_staircase(qa, qa, [[v, v] for v in range(len(qa.names))])):
        for t in col:
            rows[t] |= 1 << k
    return rows


def kernel_containment_check(data_pi: Morphism, frob_rows):
    """(dim ker f_R, dim ker pi, ker f_R <= ker pi) for f_R's bit rows.  A
    kernel is the annihilator of the row space, so the containment holds
    exactly when pi's rows lie in the row space of f_R: f_R's rows go into
    one F_2 echelon, then pi's, and none of pi's may add a pivot."""
    echelon = {}
    for bits in frob_rows:
        linalg.f2_insert(echelon, bits)
    rank_f = len(echelon)
    contained = not any(linalg.f2_insert(echelon, linalg.f2_bits(row))
                        for row in data_pi.matrix)
    return data_pi.domain_dim - rank_f, data_pi.kernel_dim, contained


def real_gen_data(P: DelzantPolytope, budget: Budget | None = None) -> RealGenData:
    if not is_normalized(P):
        raise UsageError("real-locus check needs a monotone-normalized polytope")
    qh_r = qh_presentation(P, F2, "mod2_weights", budget)
    qh = qh_presentation(P, F2, "plain", budget)
    pi = reduction_pi(qh_r, qh)
    frob = frobenius_matrix(qh_r)
    ker_f_dim, ker_pi_dim, contained = kernel_containment_check(pi, frob)
    return RealGenData(
        qh_r=qh_r,
        qh=qh,
        pi=pi,
        frobenius=frob,
        pi_kernel_dim=ker_pi_dim,
        frobenius_kernel_dim=ker_f_dim,
        contained=contained,
        minimal_chern=minimal_chern(P),
    )


def real_generation_report(P: DelzantPolytope, budget: Budget | None = None) -> GenerationReport:
    data = real_gen_data(P, budget)
    if data.qh_r.dim != 2 ** (P.num_facets - P.n) * data.qh.dim:
        raise AnomalyError(
            f"dim QH_R = {data.qh_r.dim} is not 2^(N-n) * dim QH = "
            f"2^{P.num_facets - P.n} * {data.qh.dim}"
        )
    nx = data.minimal_chern
    report = GenerationReport(
        input_name=P.name or "polytope",
        field=F2,
        co0=None,
        summands=[],
        minimal_chern=nx,
        extra={
            "dim_qh_r": data.qh_r.dim,
            "dim_qh": data.qh.dim,
            "pi_kernel_dim": data.pi_kernel_dim,
            "frobenius_kernel_dim": data.frobenius_kernel_dim,
            "containment": data.contained,
        },
    )
    if nx is None or nx < 2:
        reason = "criterion inapplicable (minimal Maslov < 2)"
        report.notes.append(reason)
        report.summands.append(GenerationSummand.inapplicable(
            data.qh.dim, data.frobenius_kernel_dim, reason))
        return report
    if not data.contained:
        report.anomaly = True
        report.notes.append(
            "squaring kernel escapes the reduction kernel; this contradicts "
            "the characteristic-2 containment theorem for monotone toric input"
        )
        return report
    report.summands.append(GenerationSummand.split(
        data.qh.dim, 0,
        statement="real locus split-generates the weight-0 Fukaya category over "
                  "characteristic 2: ker(squaring) is contained in ker(reduction), "
                  "so the completed closed-open map is injective"))
    report.notes.append(
        f"dim QH_R = {data.qh_r.dim} = 2^(N-n) * dim QH = "
        f"2^{P.num_facets - P.n} * {data.qh.dim}"
    )
    return report
