"""Presentations of toric rings, Jacobian rings, the closed-open map,
first-Chern-class spectra, critical local systems, and toric split-generation
reports.  Over Q the report splits along the minimal polynomial of c1, found
by Krylov iteration from the unit, with one CRT call for all its
rational-root and residual summands.  Every summand's verdict comes from one
of the three `GenerationSummand` constructors.

Every presentation of a ring read off a polytope lives here.  All of them
have one variable Z_j per facet and share the linear relations
sum_j nu_j Z_j = 0.  The classical ring H*(X_P) (over F_2, the cohomology
of the real locus) adds one monomial relation prod_{j in J} Z_j per
primitive collection J.  The divisor presentation of QH*(X_P) instead adds
one monomial relation Z^A - 1 per basis vector A of the sphere-class
lattice (Z^{2A} - 1 for the mod-2-weights variant).  Instantiating these
only on a lattice basis suffices because (Z^A - 1) Z^B + (Z^B - 1) =
Z^{A+B} - 1; a unit test exercises random combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebra import FiniteAlgebra, krylov_min_poly, local_decompose, split_along
from .errors import AnomalyError, UsageError
from .grobner import (
    Budget,
    Morphism,
    QuotientAlgebra,
    algebra_morphism,
    laurent_quotient,
    polynomial_quotient,
)
from .laurent import LaurentPoly, LaurentRing
from .scalar import (
    DEFAULT_SEED,
    Field,
    PrimeField,
    UniPoly,
    field_name,
    rational_roots,
    strip_roots,
    univariate_factor,
)
from .toric import (
    DelzantPolytope,
    h2_lattice,
    is_normalized,
    minimal_chern,
    primitive_collections,
    superpotential,
    validate,
)


def jacobian_ring(W: LaurentPoly, budget: Budget | None = None) -> QuotientAlgebra:
    """Quotient of the Laurent ring by all log-derivatives z_i dW/dz_i."""
    gens = [W.log_derivative(i) for i in range(W.ring.nvars)]
    if all(g.is_zero() for g in gens):
        raise UsageError("all log-derivatives vanish; quotient is the whole ring")
    return laurent_quotient(gens, budget=budget)


def _linear_relations(P: DelzantPolytope, field: Field):
    """sum_j nu_j^i Z_j for each coordinate i, as exponent dicts over the
    field; a relation whose coefficients all vanish there is left out."""
    N = P.num_facets
    relations = []
    for i in range(P.n):
        g = {}
        for j in range(N):
            c = field.from_int(P.normals[j][i])
            if c:
                e = [0] * N
                e[j] = 1
                g[tuple(e)] = c
        if g:
            relations.append(g)
    return relations


def _cohomology_quotient(P: DelzantPolytope, field: Field, collections, budget=None):
    """H*(X_P) over the field: the linear relations and one monomial
    relation prod_{j in J} H_j per primitive collection J."""
    N = P.num_facets
    gens = _linear_relations(P, field) + [
        {tuple(int(j in J) for j in range(N)): field.one} for J in collections]
    return polynomial_quotient(field, [f"H{j + 1}" for j in range(N)], gens, budget)


def cohomology_dims(P: DelzantPolytope, fields, budget=None):
    """`classical_cohomology` over each of `fields`, from one validation of
    P and one list of its primitive collections."""
    collections = primitive_collections(validate(P), P.num_facets)
    return [_cohomology_quotient(P, field, collections, budget).graded_dims()
            for field in fields]


def classical_cohomology(P: DelzantPolytope, field: Field, budget=None):
    """Graded dims of the divisor-class presentation; slot j is degree 2j."""
    return cohomology_dims(P, [field], budget)[0]


def real_cohomology_dims(P: DelzantPolytope, budget=None):
    """Mod-2 Betti numbers of the real locus: same presentation over F_2."""
    return cohomology_dims(P, [PrimeField(2)], budget)[0]


def _qh_generators(P: DelzantPolytope, field: Field, variant: str):
    """The linear relations, then one monomial relation per basis vector of
    the sphere-class lattice, in the Laurent ring in Z_1..Z_N."""
    N = P.num_facets
    ring = LaurentRing([f"Z{j + 1}" for j in range(N)], field)
    scale = 2 if variant == "mod2_weights" else 1
    return ([ring.from_terms(g.items()) for g in _linear_relations(P, field)]
            + [ring.monomial(tuple(scale * x for x in p)) - ring.one()
               for p in h2_lattice(P).basis])


def qh_presentation(P: DelzantPolytope, field: Field, variant: str = "plain",
                    budget: Budget | None = None) -> QuotientAlgebra:
    """Divisor presentation of QH(X_P) as a quotient of the Laurent ring in
    Z_1..Z_N by the linear and monomial relations."""
    if variant not in ("plain", "mod2_weights"):
        raise UsageError(f"unknown variant {variant!r}")
    if variant == "mod2_weights" and field.char != 2:
        raise UsageError("mod2_weights presentation requires the field F2")
    if not is_normalized(P):
        raise UsageError("presentation needs a monotone-normalized polytope")
    return laurent_quotient(_qh_generators(P, field, variant), budget=budget)


def co0_map(P: DelzantPolytope, field: Field, budget: Budget | None = None):
    """Divisor classes to boundary monomials: Z_j -> z^{nu_j}.

    Returns (qh, jacobian, morphism).  A failure of the expected
    isomorphism on valid input is an anomaly, reported by the caller.
    """
    qh = qh_presentation(P, field, "plain", budget)
    W = superpotential(P, field)
    jac = jacobian_ring(W, budget)
    if not jac.finite:
        raise UsageError("Jacobian ring is infinite-dimensional")
    zring = W.ring
    images = [zring.monomial(tuple(nu)) for nu in P.normals]
    mor = algebra_morphism(qh, jac, images)
    return qh, jac, mor


def c1_element(target: str, P: DelzantPolytope, field: Field,
               algebra: QuotientAlgebra | None = None,
               budget: Budget | None = None):
    """Coordinates of the first Chern class: sum Z_j in the divisor
    presentation, or the class of W in the Jacobian ring."""
    if target == "qh":
        qa = algebra
        if qa is None:
            qa = qh_presentation(P, field, "plain", budget)
        n = P.num_facets
        return qa.nf_coords(qa.source_ring.from_terms(
            (tuple(int(i == j) for i in range(n)), 1) for j in range(n)))
    if target == "jac":
        W = superpotential(P, field)
        qa = algebra if algebra is not None else jacobian_ring(W, budget)
        return qa.nf_coords(W)
    raise UsageError("target must be 'qh' or 'jac'")


@dataclass
class SpectrumReport:
    char_poly: UniPoly
    factors: list  # (UniPoly, multiplicity) over F_p; (root, mult) pairs over Q
    residual: UniPoly | None  # nontrivial only over Q
    eigenspaces: list  # (label, generalized eigenspace dim)

    def to_json(self):
        F = self.char_poly.field
        return {
            "char_poly": [F.to_str(c) for c in self.char_poly.coeffs],
            "factors": [
                {"factor": [F.to_str(c) for c in f.coeffs], "multiplicity": m}
                if isinstance(f, UniPoly)
                else {"root": F.to_str(f), "multiplicity": m}
                for f, m in self.factors
            ],
            "residual": [F.to_str(c) for c in self.residual.coeffs]
            if self.residual is not None and self.residual.degree > 0
            else None,
            "eigenspaces": [{"at": lbl, "dim": d} for lbl, d in self.eigenspaces],
        }


def c1_spectrum(qa: QuotientAlgebra, c1_coords, seed: int = DEFAULT_SEED) -> SpectrumReport:
    """Exact characteristic polynomial of quantum multiplication by c1,
    factored over F_p, or split into rational roots plus a residual over Q."""
    F = qa.field
    chi = linalg.charpoly(F, qa.element_mult_matrix(c1_coords))
    # an irreducible factor f of chi with multiplicity k has a generalized
    # eigenspace of dimension deg(f) * k
    if isinstance(F, PrimeField):
        factors = univariate_factor(chi, seed=seed)
        residual = None
        eigen = [(repr(f), f.degree * mult) for f, mult in factors]
    else:
        factors = rational_roots(chi)
        _, residual = strip_roots(chi, [r for r, _ in factors])
        eigen = [(F.to_str(r), mult) for r, mult in factors]
        if residual.degree > 0:
            eigen.append((f"residual {residual!r}", residual.degree))
    return SpectrumReport(chi, factors, residual, eigen)


@dataclass
class CriticalPointReport:
    points: list  # lists of field elements, one per residue-degree-1 factor
    factors: list  # all LocalFactor objects, split or not
    algebra: FiniteAlgebra

    @property
    def nonsplit(self):
        return [f for f in self.factors if f.residue_degree > 1]


def critical_points(W: LaurentPoly, budget: Budget | None = None,
                    seed: int = DEFAULT_SEED) -> CriticalPointReport:
    """Local decomposition of Jac W; residue-degree-1 factors yield points in
    (F_p^x)^n, verified against the vanishing of every log-derivative.
    `seed` drives the factorization randomness."""
    if not isinstance(W.ring.field, PrimeField):
        raise UsageError("critical point enumeration is implemented over F_p")
    return _critical_points(jacobian_ring(W, budget), seed)


def _critical_points(jac: QuotientAlgebra, seed: int) -> CriticalPointReport:
    if not jac.finite:
        raise UsageError("Jacobian ring is infinite-dimensional")
    A = jac.finite_algebra()
    factors = local_decompose(A, seed)
    points = [f.point for f in factors if f.residue_degree == 1 and f.point is not None]
    for pt in points:
        _check_critical(jac.source_gens, pt)
    return CriticalPointReport(points=points, factors=factors, algebra=A)


def _check_critical(log_derivatives, point):
    """A point read off a residue-degree-1 summand is a critical point of W,
    given by its log-derivatives; one that leaves a log-derivative nonzero
    is an anomaly."""
    for i, d in enumerate(log_derivatives):
        if d.evaluate(point):
            raise AnomalyError(
                f"recovered point {point} does not annihilate log-derivative {i}")


_SPLIT_STATEMENT = (
    "monotone fibre with this local system split-generates the matching "
    "summand: the closed-open map is an isomorphism and restricts to an "
    "injection on the summand"
)


@dataclass
class GenerationSummand:
    """One summand of a generation report.  Build it with `split`,
    `nonsplit` or `inapplicable`, which fix its verdict and kernel_dim."""

    dim: int
    residue_degree: int
    point: list | None
    critical_value: object | None
    kernel_dim: int
    verdict: str
    statement: str

    @classmethod
    def split(cls, dim, residue_degree, point=None, critical_value=None,
              statement=_SPLIT_STATEMENT):
        """CO^0 injective on the summand: split-generation, by Abouzaid's criterion."""
        return cls(dim, residue_degree, point, critical_value, 0,
                   "split-generates", statement)

    @classmethod
    def nonsplit(cls, dim, residue_degree, statement):
        """No critical local system over the base field for the summand."""
        return cls(dim, residue_degree, None, None, 0, "nonsplit", statement)

    @classmethod
    def inapplicable(cls, dim, kernel_dim, statement):
        """The criterion does not apply; kernel_dim is the kernel it met."""
        return cls(dim, 0, None, None, kernel_dim, "inapplicable", statement)

    def to_json(self, field):
        return {
            "dim": self.dim,
            "residue_degree": self.residue_degree,
            "point": [field.to_str(x) for x in self.point] if self.point else None,
            "critical_value": field.to_str(self.critical_value)
            if self.critical_value is not None
            else None,
            "kernel_dim": self.kernel_dim,
            "verdict": self.verdict,
            "statement": self.statement,
        }


@dataclass
class GenerationReport:
    input_name: str
    field: Field
    co0: Morphism
    summands: list
    minimal_chern: int | None
    notes: list = dc_field(default_factory=list)
    anomaly: bool = False
    extra: dict = dc_field(default_factory=dict)

    def to_json(self):
        data = {
            "input": self.input_name,
            "field": field_name(self.field),
            "co0": self.co0.to_json() if self.co0 is not None else None,
            "summands": [s.to_json(self.field) for s in self.summands],
            "minimal_chern": self.minimal_chern,
            "notes": list(self.notes),
            "anomaly": self.anomaly,
        }
        data.update(self.extra)
        return data


def _fp_summands(W: LaurentPoly, jac: QuotientAlgebra, seed: int):
    """Local decomposition route over a prime field: a local factor with a
    point splits, any other is defined over a larger residue field."""
    p = W.ring.field.char
    return [
        GenerationSummand.split(f.dim, 1, f.point, W.evaluate(f.point))
        if f.residue_degree == 1 and f.point is not None
        else GenerationSummand.nonsplit(
            f.dim, f.residue_degree,
            f"critical local system defined over F_{p ** f.residue_degree}, "
            f"not split over the base field F_{p}")
        for f in _critical_points(jac, seed).factors
    ]


def _rational_summands(W: LaurentPoly, jac: QuotientAlgebra):
    """CRT route over Q: split along rational eigenvalues of quantum
    multiplication by the first Chern class, its minimal polynomial being
    prod (t - lam)^m * residual; one idempotent per root, and one for the
    residual when it has positive degree (those of chi, whose roots are the
    same).  Each summand is read from its idempotent e: its dim is the rank
    of multiplication by e, and a root's summand of dim 1 has a point."""
    F = jac.field
    A = jac.finite_algebra()
    c1 = jac.nf_coords(W)
    mu = krylov_min_poly(A, c1, A.unit)
    factors, residual = strip_roots(mu, [lam for lam, _ in rational_roots(mu)])
    if residual.degree > 0:
        factors.append((residual, 1))
    out = []
    for (f, _), e in zip(factors, split_along(A, c1, A.unit, factors)):
        dim = linalg.rank(F, A.mult_matrix(e))
        if f is residual:
            out.append(GenerationSummand.nonsplit(
                dim, 0,
                "complementary summand for the irrational part of the "
                "first-Chern-class spectrum; no rational critical local system"))
            continue
        # the coordinates generate A, so they act on e*A as scalars exactly
        # when dim e*A = 1: g e = c e, c read at the first nonzero entry of e
        point = None
        if dim == 1:
            k = next(i for i, x in enumerate(e) if x)
            point = [F.div(A.mult(g, e)[k], e[k]) for g in A.generators]
            _check_critical(jac.source_gens, point)
        out.append(GenerationSummand.split(dim, 1, point, -f.coeffs[0]))
    return out


def toric_generation_report(P: DelzantPolytope, field: Field,
                            budget: Budget | None = None,
                            seed: int = DEFAULT_SEED) -> GenerationReport:
    """Split-generation verdicts for the monotone fibre, one per local factor
    of the Jacobian ring (over F_p) or per rational eigenvalue summand (over
    Q), matched to quantum cohomology through the divisor-to-boundary-monomial
    isomorphism.  `seed` drives the factorization randomness over F_p."""
    _, jac, mor = co0_map(P, field, budget)
    nx = minimal_chern(P)
    report = GenerationReport(
        input_name=P.name or "polytope",
        field=field,
        co0=mor,
        summands=[],
        minimal_chern=nx,
    )
    if not mor.is_isomorphism:
        report.anomaly = True
        report.notes.append(
            "divisor-to-boundary map is not an isomorphism; "
            "out-of-contract input or implementation bug"
        )
        return report
    W = superpotential(P, field)
    if isinstance(field, PrimeField):
        report.summands = _fp_summands(W, jac, seed)
    else:
        report.summands = _rational_summands(W, jac)
    total = sum(s.dim for s in report.summands)
    if total != jac.dim:
        raise AnomalyError("summand dims do not sum to the algebra dimension")
    return report


def s_mod_m2(n: int, rho, field: Field, budget: Budget | None = None):
    """The square-zero extension S/m^2 at the local system rho.

    Returns (QuotientAlgebra, checks dict).  The quotient has dimension n+1,
    the ideal m = (z_i - rho_i) squares to zero, and the product matches
    (l1, s1)(l2, s2) = (l1 l2, l1 s2 + l2 s1) on the basis 1, z_i - rho_i.
    """
    if len(rho) != n:
        raise UsageError("need one monodromy value per variable")
    for r in rho:
        if r == field.zero:
            raise UsageError("monodromy values must be invertible")
    ring = LaurentRing([f"z{i + 1}" for i in range(n)], field)
    lins = [ring.variable(i) - ring.constant(rho[i]) for i in range(n)]
    gens = [lins[i] * lins[j] for i in range(n) for j in range(i, n)]
    qa = laurent_quotient(gens, budget=budget)
    checks = {"dim_expected": n + 1, "dim": qa.dim if qa.finite else None}
    ok = qa.finite and qa.dim == n + 1
    if ok:
        basis = [qa.nf_coords(l) for l in lins]
        msq_zero = all(
            all(x == field.zero for x in qa.element_product(u, v))
            for u in basis
            for v in basis
        )
        checks["m_squared_zero"] = msq_zero
        # basis (1, z_i - rho_i) spans iff m squares to zero and the table is
        # the square-zero extension product, so independence is the last check
        spanning = linalg.rank(field, [qa.unit_coords()] + basis) == n + 1
        checks["square_zero_extension"] = msq_zero and spanning
        ok = ok and checks["square_zero_extension"]
    checks["ok"] = ok
    return qa, checks
