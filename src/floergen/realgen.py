"""Characteristic-2 split-generation checker for the real locus of a monotone
toric manifold.

Builds the divisor presentation over F_2 with squared sphere-class weights
(QH_R) and with plain weights (QH), and two ring maps between them: the
reduction pi: QH_R -> QH, Z_j -> Z_j, well defined because
Z^{2A} - 1 = (Z^A - 1)^2 in characteristic 2, and the Frobenius lift
s: QH -> QH_R, Z_j -> Z_j^2, built by `algebra_morphism`.  Both quotients
present the same Laurent ring F_2[Z_j^±1] and pi is the identity on it, so
pi is onto and dim ker pi = dim QH_R - dim QH; it needs no matrix.  The
squaring map f_R on QH_R is s o pi, both ring maps sending Z_j to Z_j^2, so
ker f_R = pi^-1(ker s): dim ker f_R = dim ker pi + dim ker s, and
ker f_R <= ker pi exactly when s is injective.  Containment plus minimal
Chern number at least 2 yields the positive verdict for the real locus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AnomalyError, UsageError
from .grobner import Budget, Morphism, QuotientAlgebra, algebra_morphism
from .quantum import GenerationReport, GenerationSummand, qh_presentation
from .scalar import PrimeField
from .toric import DelzantPolytope, is_normalized, minimal_chern

F2 = PrimeField(2)


@dataclass
class RealGenData:
    qh_r: QuotientAlgebra
    qh: QuotientAlgebra
    pi: Morphism
    lift: Morphism  # the Frobenius lift s: QH -> QH_R
    minimal_chern: int | None


def reduction_pi(qh_r: QuotientAlgebra, qh: QuotientAlgebra) -> Morphism:
    """The identity on divisor variables, from squared weights to plain.

    Both quotients present the same Laurent ring and pi is the identity on
    it, so pi is onto by construction, and it is well defined exactly when
    every relation of the domain leaves no remainder in the codomain.  Its
    kernel dimension is then dim QH_R - dim QH; no columns are built."""
    if any(qh.reduce_poly(qh.encode_laurent(rel)) for rel in qh_r.source_gens):
        raise AnomalyError(
            "reduction map is not well defined; squared-weight relations "
            "must land in the plain ideal in characteristic 2"
        )
    return Morphism(True, None, None, qh_r.dim - qh.dim, qh_r.dim, qh.dim)


def frobenius_matrix(qh: QuotientAlgebra, qh_r: QuotientAlgebra) -> Morphism:
    """The Frobenius lift s: QH -> QH_R, Z_j -> Z_j^2, a ring map only in
    characteristic 2, where it sends the linear relations of QH to their
    squares."""
    if qh.field.char != 2 or qh_r.field.char != 2:
        raise UsageError("the Frobenius lift is a ring map only in characteristic 2")
    ring = qh_r.source_ring
    images = [ring.monomial(tuple(2 * (i == j) for i in range(ring.nvars)))
              for j in range(ring.nvars)]
    mor = algebra_morphism(qh, qh_r, images)
    if not mor.well_defined:
        raise AnomalyError("Frobenius lift is not well defined; squared plain "
                           "relations must land in the squared-weight ideal")
    return mor


def kernel_containment_check(pi: Morphism, lift: Morphism):
    """(dim ker f_R, dim ker pi, ker f_R <= ker pi) for f_R = s o pi with pi
    onto: ker f_R = pi^-1(ker s) has dimension dim ker pi + dim ker s, and it
    lies in ker pi = pi^-1(0) exactly when ker s = 0."""
    return pi.kernel_dim + lift.kernel_dim, pi.kernel_dim, lift.kernel_dim == 0


def real_gen_data(P: DelzantPolytope, budget: Budget | None = None) -> RealGenData:
    if not is_normalized(P):
        raise UsageError("real-locus check needs a monotone-normalized polytope")
    qh_r = qh_presentation(P, F2, "mod2_weights", budget)
    qh = qh_presentation(P, F2, "plain", budget)
    return RealGenData(
        qh_r=qh_r,
        qh=qh,
        pi=reduction_pi(qh_r, qh),
        lift=frobenius_matrix(qh, qh_r),
        minimal_chern=minimal_chern(P),
    )


def real_generation_report(P: DelzantPolytope, budget: Budget | None = None) -> GenerationReport:
    data = real_gen_data(P, budget)
    if data.qh_r.dim != 2 ** (P.num_facets - P.n) * data.qh.dim:
        raise AnomalyError(
            f"dim QH_R = {data.qh_r.dim} is not 2^(N-n) * dim QH = "
            f"2^{P.num_facets - P.n} * {data.qh.dim}"
        )
    ker_f_dim, ker_pi_dim, contained = kernel_containment_check(data.pi, data.lift)
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
            "pi_kernel_dim": ker_pi_dim,
            "frobenius_kernel_dim": ker_f_dim,
            "containment": contained,
        },
    )
    if nx is None or nx < 2:
        reason = "criterion inapplicable (minimal Maslov < 2)"
        report.notes.append(reason)
        report.summands.append(GenerationSummand.inapplicable(
            data.qh.dim, ker_f_dim, reason))
        return report
    if not contained:
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
