"""Groebner bases and finite-dimensional quotient algebras.

A QuotientAlgebra is a presentation: generators, Groebner basis and
staircase.  The finite-dimensional algebra it presents is a FiniteAlgebra on
per-basis multiplication matrices, built when first needed from the normal
forms of the staircase products under the quotient's budget; products of
elements are delegated to it.

Polynomials live in ordinary (nonnegative-exponent) rings as dicts from
exponent tuples to coefficients.  Laurent ideals are handled through the
per-variable inverse encoding: k[z1..zn, z1^-1..zn^-1] becomes
k[w1..wn, z1..zn] modulo the unit relations zi*wi - 1, with the inverse
variables ordered first (largest) so staircase monomials prefer the original
variables.  One encoder, `_encode`, sends z^e to w^max(-e,0) z^max(e,0);
generators and elements are encoded the same way.

Degree reverse lexicographic order is the only monomial order.  Buchberger
takes its S-pairs from a heap in (degrevlex(lcm), i, j) order, the normal
selection strategy with ties broken by index, and runs with the coprimality
and chain criteria and full final interreduction, so the emitted basis is the
unique reduced Groebner basis for degrevlex.  Every reduction step ticks a
step budget: Buchberger's own, and every normal form of a quotient's elements
under the budget that quotient was built under.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebra import FiniteAlgebra
from .errors import ResourceBudgetError, UsageError
from .laurent import LaurentPoly, LaurentRing

DEFAULT_BUDGET = 10**6


class Budget:
    """Counts individual reduction steps across one logical computation."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.steps = 0

    def tick(self, context=""):
        self.steps += 1
        if self.steps > self.limit:
            raise ResourceBudgetError(
                f"reduction budget of {self.limit} exceeded {context}".rstrip(),
                steps=self.steps,
            )


# --- polynomial dict helpers --------------------------------------------------


def degrevlex(e):
    """Sort key of the monomial e in degree reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _leading(poly):
    return max(poly, key=degrevlex)


def _add_scaled(field, target, src, coeff, mono):
    """target += coeff * x^mono * src, in place."""
    for e, c in src.items():
        m = _mono_mul(e, mono)
        acc = field.add(target.get(m, field.zero), field.mul(coeff, c))
        if acc == field.zero:
            target.pop(m, None)
        else:
            target[m] = acc


def _monic(field, poly):
    if not poly:
        return poly
    inv = field.inv(poly[_leading(poly)])
    return {e: field.mul(inv, c) for e, c in poly.items()}


def normal_form_poly(field, poly, basis, budget):
    """Full reduction of a polynomial dict modulo a list of (poly, lm), one
    budget tick per step."""
    work = dict(poly)
    remainder = {}
    while work:
        m = _leading(work)
        c = work[m]
        for g, lm in basis:
            if _divides(lm, m):
                budget.tick("(normal form)")
                factor = field.neg(field.div(c, g[lm]))
                _add_scaled(field, work, g, factor, _mono_div(m, lm))
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder


def _s_poly(field, f, lf, g, lg):
    lcm = _mono_lcm(lf, lg)
    out = {}
    _add_scaled(field, out, f, field.inv(f[lf]), _mono_div(lcm, lf))
    _add_scaled(field, out, g, field.neg(field.inv(g[lg])), _mono_div(lcm, lg))
    return out


def buchberger(field, gens, budget: Budget | None = None):
    """Reduced degrevlex Groebner basis of the ideal generated by `gens`
    (poly dicts)."""
    if budget is None:
        budget = Budget()
    basis = []
    for g in gens:
        g = {e: c for e, c in g.items() if c != field.zero}
        if g:
            basis.append(_monic(field, g))
    if not basis:
        raise UsageError("empty generator list")
    lms = [_leading(g) for g in basis]
    divisors = list(zip(basis, lms))

    # `queue` is a heap of (degrevlex(lcm), (i, j)) over the queued pairs, a
    # total order; `pairs` holds the same pairs for the chain criterion
    pairs = set()
    queue = []

    def queue_pairs_with(t):
        for k in range(t):
            pairs.add((k, t))
            heapq.heappush(queue, (degrevlex(_mono_lcm(lms[k], lms[t])), (k, t)))

    for t in range(1, len(basis)):
        queue_pairs_with(t)

    def reduce(poly, others):
        try:
            return normal_form_poly(field, poly, others, budget)
        except ResourceBudgetError as err:
            err.basis_size = len(basis)
            raise

    while queue:
        _, (i, j) = heapq.heappop(queue)
        pairs.discard((i, j))
        lcm = _mono_lcm(lms[i], lms[j])
        if lcm == _mono_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(lms[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                chain = True
                break
        if chain:
            continue
        s = _s_poly(field, basis[i], lms[i], basis[j], lms[j])
        h = reduce(s, divisors)
        if h:
            h = _monic(field, h)
            basis.append(h)
            lms.append(_leading(h))
            divisors.append((h, lms[-1]))
            queue_pairs_with(len(basis) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    keep = []
    for i, lm in enumerate(lms):
        if not any(
            _divides(lms[k], lm) and (lms[k] != lm or k < i)
            for k in range(len(basis))
            if k != i
        ):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    # fully interreduce
    reduced = []
    for idx, g in enumerate(minimal):
        others = [(h, _leading(h)) for k, h in enumerate(minimal) if k != idx]
        r = reduce(g, others)
        if r:
            reduced.append(_monic(field, r))
    reduced.sort(key=lambda g: degrevlex(_leading(g)))
    return reduced


# --- quotient algebras --------------------------------------------------------


@dataclass
class QuotientAlgebra:
    """Quotient by a Groebner basis, with its staircase basis.

    `names` are the encoded polynomial variables.  A Laurent quotient has a
    `source_ring`, the original Laurent ring in n variables, and its names
    are the n inverse variables followed by the n originals.  `leads[i]` is
    the leading monomial of `gb[i]`.  `budget` is the one the quotient was
    built under; every normal form the quotient computes is reduced under it.
    """

    field: object
    names: tuple
    gb: list
    leads: list
    finite: bool
    staircase: list
    budget: Budget
    source_ring: LaurentRing | None = None
    source_gens: list = dc_field(default_factory=list)
    unit_index: int | None = dc_field(init=False, default=None)
    _index: dict = dc_field(init=False, repr=False)
    _algebra: FiniteAlgebra | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self._index = {m: i for i, m in enumerate(self.staircase)}
        self.unit_index = self._index.get((0,) * len(self.names))

    @property
    def dim(self):
        if not self.finite:
            raise UsageError("quotient is infinite-dimensional")
        return len(self.staircase)

    def _require_finite(self):
        if not self.finite:
            raise UsageError("operation needs a finite-dimensional quotient")

    def encode_laurent(self, p: LaurentPoly):
        """The encoded polynomial dict of an element of the source ring."""
        if self.source_ring is None:
            raise UsageError("not a Laurent quotient")
        if p.ring != self.source_ring:
            raise UsageError("polynomial lives in a different ring")
        return _encode(p)

    def reduce_poly(self, poly_dict):
        basis = list(zip(self.gb, self.leads))
        return normal_form_poly(self.field, poly_dict, basis, self.budget)

    def nf_coords(self, p):
        """Coordinates of the normal form over the staircase basis."""
        self._require_finite()
        poly = self.encode_laurent(p) if isinstance(p, LaurentPoly) else dict(p)
        coords = [self.field.zero] * self.dim
        for m, c in self.reduce_poly(poly).items():
            coords[self._index[m]] = c
        return coords

    def monomial_label(self, mono) -> str:
        """Human-readable label, decoding inverse variables when Laurent."""
        if self.source_ring is not None:
            n = self.source_ring.nvars
            net = [mono[n + i] - mono[i] for i in range(n)]
            names = self.source_ring.variables
            parts = [
                f"{names[i]}^{x}" if x != 1 else names[i]
                for i, x in enumerate(net)
                if x != 0
            ]
        else:
            parts = [
                f"{self.names[i]}^{x}" if x != 1 else self.names[i]
                for i, x in enumerate(mono)
                if x != 0
            ]
        return "*".join(parts) if parts else "1"

    def basis_labels(self):
        return [self.monomial_label(m) for m in self.staircase]

    def basis_mult_matrix(self, j):
        """Multiplication matrix of the j-th staircase basis monomial: column k
        is the normal form of staircase[j] * staircase[k]."""
        self._require_finite()
        mono = self.staircase[j]
        return linalg.transpose(
            [self.nf_coords({_mono_mul(mono, m): self.field.one})
             for m in self.staircase]
        )

    def finite_algebra(self):
        """The presented FiniteAlgebra, built on first use and then kept."""
        if self._algebra is None:
            self._algebra = FiniteAlgebra.from_quotient(self)
        return self._algebra

    def element_mult_matrix(self, coords):
        return self.finite_algebra().mult_matrix(coords)

    def element_product(self, u, v):
        return self.finite_algebra().mult(u, v)

    def unit_coords(self):
        self._require_finite()
        coords = [self.field.zero] * self.dim
        coords[self.unit_index] = self.field.one
        return coords

    def graded_dims(self):
        """Staircase monomial counts per total degree (degree-graded ideals)."""
        self._require_finite()
        if not self.staircase:
            return []
        top = max(sum(m) for m in self.staircase)
        dims = [0] * (top + 1)
        for m in self.staircase:
            dims[sum(m)] += 1
        return dims

    def to_json(self):
        data = {
            "field": "Q" if self.field.char == 0 else f"F{self.field.char}",
            "dim": len(self.staircase) if self.finite else None,
            "finite": self.finite,
            "staircase": self.basis_labels() if self.finite else None,
        }
        if self.source_ring is not None:
            data["variables"] = list(self.source_ring.variables)
            data["generators"] = [g.to_json() for g in self.source_gens]
        return data


def _staircase_from_leads(names, leads):
    """BFS over the divisor-closed set of standard monomials.

    Returns None when some variable has no pure power among the leading
    monomials (infinite-dimensional quotient).
    """
    nvars = len(names)
    zero = (0,) * nvars
    if any(lm == zero for lm in leads):
        return []  # unit ideal
    for v in range(nvars):
        if not any(
            lm[v] > 0 and all(lm[w] == 0 for w in range(nvars) if w != v)
            for lm in leads
        ):
            return None
    seen = {zero}
    queue = [zero]
    out = []
    while queue:
        m = queue.pop()
        out.append(m)
        for v in range(nvars):
            nxt = m[:v] + (m[v] + 1,) + m[v + 1 :]
            if nxt in seen:
                continue
            seen.add(nxt)
            if not any(_divides(lm, nxt) for lm in leads):
                queue.append(nxt)
    return out


def _build_quotient(field, names, gen_dicts, budget, source_ring=None,
                    source_gens=()):
    gb = buchberger(field, gen_dicts, budget)
    leads = [_leading(g) for g in gb]
    staircase = _staircase_from_leads(names, leads)
    return QuotientAlgebra(
        field=field,
        names=tuple(names),
        gb=gb,
        leads=leads,
        finite=staircase is not None,
        staircase=sorted(staircase, key=degrevlex) if staircase is not None else [],
        budget=budget,
        source_ring=source_ring,
        source_gens=list(source_gens),
    )


def polynomial_quotient(field, names, gen_dicts, budget=None):
    """Quotient of an ordinary polynomial ring by explicit generator dicts."""
    if budget is None:
        budget = Budget()
    return _build_quotient(field, names, gen_dicts, budget)


def _encode(p: LaurentPoly):
    """The inverse encoding of p: z^e goes to w^max(-e,0) z^max(e,0), one to
    one on monomials."""
    return {tuple(max(-x, 0) for x in e) + tuple(max(x, 0) for x in e): c
            for e, c in p.terms.items()}


def laurent_quotient(gens, budget=None) -> QuotientAlgebra:
    """Quotient of a Laurent ring by `gens`, via the inverse-variable encoding.

    An infinite-dimensional quotient is a valid outcome, reported through the
    `finite` flag rather than an exception.
    """
    if not gens:
        raise UsageError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise UsageError("generators live in different rings")
    if budget is None:
        budget = Budget()
    n = ring.nvars
    names = tuple(f"{v}_inv" for v in ring.variables) + tuple(ring.variables)
    field = ring.field
    gen_dicts = [_encode(g) for g in gens if not g.is_zero()]
    if not gen_dicts:
        raise UsageError("all generators are zero")
    for i in range(n):
        rel = {(0,) * (2 * n): field.neg(field.one)}
        e = [0] * (2 * n)
        e[i] = 1
        e[n + i] = 1
        rel[tuple(e)] = field.one
        gen_dicts.append(rel)
    return _build_quotient(
        field, names, gen_dicts, budget,
        source_ring=ring, source_gens=list(gens),
    )


# --- algebra morphisms ---------------------------------------------------------


@dataclass
class Morphism:
    well_defined: bool
    failing_relation: int | None
    reason: str | None
    matrix: list | None
    kernel_dim: int | None
    surjective: bool | None
    domain_dim: int
    codomain_dim: int

    def to_json(self):
        return {
            "well_defined": self.well_defined,
            "failing_relation": self.failing_relation,
            "kernel_dim": self.kernel_dim,
            "surjective": self.surjective,
            "domain_dim": self.domain_dim,
            "codomain_dim": self.codomain_dim,
        }


def algebra_morphism(domain: QuotientAlgebra, codomain: QuotientAlgebra, images):
    """Linear data of the algebra map sending domain generators to `images`.

    The map is well defined exactly when every domain relation evaluates to
    zero in the codomain (and every generator image is invertible, as Laurent
    generators are units).  Failures are reported in the result, not raised.
    """
    domain._require_finite()
    codomain._require_finite()
    if domain.source_ring is None:
        raise UsageError("domain must be a Laurent quotient")
    n = domain.source_ring.nvars
    if len(images) != n:
        raise UsageError("need one image per domain generator")
    F = codomain.field
    mats = [codomain.element_mult_matrix(codomain.nf_coords(p)) for p in images]
    inverses = [linalg.invert(F, m) for m in mats]
    memo = {(0,) * n: codomain.unit_coords()}

    def image(e):
        """Coordinates of z^e for a signed exponent vector e, one mat_vec per
        step from the nearest memoized exponent towards zero."""
        path = []
        while e not in memo:
            i = next(k for k, x in enumerate(e) if x)
            step = 1 if e[i] > 0 else -1
            path.append((e, mats[i] if step > 0 else inverses[i]))
            e = e[:i] + (e[i] - step,) + e[i + 1 :]
        vec = memo[e]
        for e, m in reversed(path):
            vec = memo[e] = linalg.mat_vec(F, m, vec)
        return vec

    def failure(ridx, reason):
        return Morphism(False, ridx, reason, None, None, None, domain.dim, codomain.dim)

    # relations first: report the offending index rather than raising
    for ridx, rel in enumerate(domain.source_gens):
        for e in rel.terms:
            for i, exp in enumerate(e):
                if exp < 0 and inverses[i] is None:
                    return failure(ridx, f"image of generator {i} is not invertible")
        val = [F.zero] * codomain.dim
        for e, c in rel.terms.items():
            val = [F.add(x, F.mul(c, y)) for x, y in zip(val, image(e))]
        if any(x != F.zero for x in val):
            return failure(ridx, "relation does not map to zero")
    # invertibility is still required to push staircase monomials through
    for i, inv in enumerate(inverses):
        if inv is None:
            return failure(None, f"image of generator {i} is not invertible")
    # a staircase monomial w^a z^b stands for z^(b - a)
    matrix = linalg.transpose(
        [image(tuple(m[n + i] - m[i] for i in range(n))) for m in domain.staircase]
    )
    rk = linalg.rank(F, matrix)
    return Morphism(
        True, None, None, matrix,
        domain.dim - rk, rk == codomain.dim, domain.dim, codomain.dim,
    )
