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

Inside this module a monomial e in n variables is one int, its lead word

    K(e) = deg(e) << W*n  -  sum_i e_i << W*i,

in fields of W bits whose top bit is a guard.  K is additive, so monomials
multiply by `+` and divide by `-`, and int order on K is degrevlex: the
leading term of a packed polynomial (a dict from lead words to coefficients)
is `max(poly)`.  The exponent word L(e) = sum_i e_i << W*i = -K(e) mod 2^(W*n)
decides divisibility in one test, a | b iff ((L(b) | G) - L(a)) & G == G for
the guard mask G, and gives the lcm by a masked select.  Every packed
monomial has total degree below DEGREE_CAP = 2^(W-1), so no field overflows;
`Words.pack` and `Words.lcm` raise rather than wrap.  Under a degree-
compatible order every term of a reduction has degree at most that of the
leading term it starts from, so those two checks cover every word.
`normal_form_poly` is the one reduction kernel; Buchberger, `reduce_poly` and
`nf_coords` all reduce through it on packed polynomials, and everything public
(`buchberger`'s input and output, `gb`, `leads`, `staircase`) stays in
exponent tuples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebra import FiniteAlgebra
from .errors import DomainError, ResourceBudgetError, UsageError
from .laurent import LaurentPoly, LaurentRing
from .scalar import field_name

DEFAULT_BUDGET = 10**6
W = 32  # bits per exponent field of a packed word, guard bit included
DEGREE_CAP = 1 << (W - 1)
_FIELD = (1 << W) - 1


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


def degrevlex(e):
    """Sort key of the monomial e in degree reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


# --- packed monomials ---------------------------------------------------------


class Words:
    """Packed words of the monomials in n variables (see the module
    docstring): lead words K for keys and order, exponent words L for
    divisibility."""

    def __init__(self, n):
        self.n = n
        self.shift = W * n
        self.emask = (1 << self.shift) - 1
        self.ones = sum(1 << (W * i) for i in range(n))
        self.guards = self.ones << (W - 1)

    def pack(self, e):
        """The lead word of the exponent tuple e."""
        if len(e) != self.n:
            raise UsageError(f"monomial {e} does not have {self.n} exponents")
        deg = sum(e)
        if deg >= DEGREE_CAP or min(e, default=0) < 0:
            raise DomainError(f"monomial {e} is outside the packed range: "
                              f"exponents >= 0, total degree < 2^{W - 1}")
        return (deg << self.shift) - sum(x << (W * i) for i, x in enumerate(e))

    def unpack(self, k):
        """The exponent tuple of the lead word k."""
        exps = -k & self.emask
        return tuple((exps >> (W * i)) & _FIELD for i in range(self.n))

    def pack_poly(self, poly):
        return {self.pack(e): c for e, c in poly.items()}

    def unpack_poly(self, poly):
        return {self.unpack(k): c for k, c in poly.items()}

    def exps(self, k):
        """The exponent word of the lead word k."""
        return -k & self.emask

    def divides(self, a, b):
        """Whether the monomial with lead word a divides that with lead word b."""
        g = self.guards
        return ((self.exps(b) | g) - self.exps(a)) & g == g

    def lcm(self, a, b):
        """The lead word of lcm(a, b): per field, the guard survives the
        subtraction exactly where a's exponent is at least b's."""
        ea, eb = self.exps(a), self.exps(b)
        pick = ((ea | self.guards) - eb) & self.guards
        pick -= pick >> (W - 1)
        exps = ea & pick | eb & ~pick
        # field n-1 of exps * ones is the sum of all fields: deg a + deg b
        # < 2^W bounds every partial sum, so nothing carries
        deg = exps * self.ones >> max(self.shift - W, 0) & _FIELD
        if deg >= DEGREE_CAP:
            raise DomainError(f"lcm of degree {deg} is outside the packed range: "
                              f"total degree < 2^{W - 1}")
        return (deg << self.shift) - exps


class Divisors:
    """Packed polynomials tried as reducers in list order: `entries` holds
    (poly, lead word, exponent word of the lead) triples."""

    def __init__(self, words, polys=()):
        self.words = words
        self.entries = []
        for g in polys:
            self.append(g)

    def append(self, g):
        lead = max(g)
        self.entries.append((g, lead, self.words.exps(lead)))


# --- packed polynomial helpers ------------------------------------------------


def _add_scaled(field, target, src, coeff, mono):
    """target += coeff * x^mono * src, in place, on packed polynomials."""
    add, mul, zero = field.add, field.mul, field.zero
    for e, c in src.items():
        m = e + mono
        acc = add(target.get(m, zero), mul(coeff, c))
        if acc == zero:
            target.pop(m, None)
        else:
            target[m] = acc


def _monic(field, poly):
    inv = field.inv(poly[max(poly)])
    return {e: field.mul(inv, c) for e, c in poly.items()}


def normal_form_poly(field, poly, basis, budget):
    """Full reduction of the packed polynomial `poly` modulo `basis`, a
    Divisors: each step cancels the leading term with the first divisor in
    list order whose lead divides it, and ticks the budget once."""
    emask, guards = basis.words.emask, basis.words.guards
    divisors = basis.entries
    work = dict(poly)
    remainder = {}
    while work:
        m = max(work)
        c = work[m]
        exps = -m & emask | guards
        for g, lead, lead_exps in divisors:
            if (exps - lead_exps) & guards == guards:
                budget.tick("(normal form)")
                factor = field.neg(field.div(c, g[lead]))
                _add_scaled(field, work, g, factor, m - lead)
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder


def buchberger(field, gens, budget: Budget | None = None):
    """Reduced degrevlex Groebner basis of the ideal generated by `gens`
    (poly dicts)."""
    if budget is None:
        budget = Budget()
    gens = [{e: c for e, c in g.items() if c != field.zero} for g in gens]
    gens = [g for g in gens if g]
    if not gens:
        raise UsageError("empty generator list")
    words = Words(len(next(iter(gens[0]))))
    basis = Divisors(words, [_monic(field, words.pack_poly(g)) for g in gens])
    entries, guards = basis.entries, words.guards

    # `queue` is a heap of (lcm word, (i, j)) over the queued pairs, a total
    # order; `pairs` holds the same pairs for the chain criterion
    pairs = set()
    queue = []

    def queue_pairs_with(t):
        lead = entries[t][1]
        for k in range(t):
            pairs.add((k, t))
            heapq.heappush(queue, (words.lcm(entries[k][1], lead), (k, t)))

    for t in range(1, len(entries)):
        queue_pairs_with(t)

    def reduce(poly, divisors):
        try:
            return normal_form_poly(field, poly, divisors, budget)
        except ResourceBudgetError as err:
            err.basis_size = len(entries)
            raise

    while queue:
        lcm, (i, j) = heapq.heappop(queue)
        pairs.discard((i, j))
        f, lf, _ = entries[i]
        g, lg, _ = entries[j]
        if lcm == lf + lg:
            continue  # coprime leading monomials
        chain = False
        lcm_exps = -lcm & words.emask | guards
        for k, (_, _, lead_exps) in enumerate(entries):
            if k in (i, j) or (lcm_exps - lead_exps) & guards != guards:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                chain = True
                break
        if chain:
            continue
        s = {}
        _add_scaled(field, s, f, field.inv(f[lf]), lcm - lf)
        _add_scaled(field, s, g, field.neg(field.inv(g[lg])), lcm - lg)
        h = reduce(s, basis)
        if h:
            basis.append(_monic(field, h))
            queue_pairs_with(len(entries) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    minimal = [
        g for i, (g, lead, _) in enumerate(entries)
        if not any(
            words.divides(other, lead) and (other != lead or k < i)
            for k, (_, other, _) in enumerate(entries)
            if k != i
        )
    ]
    # fully interreduce
    reduced = []
    for idx, g in enumerate(minimal):
        r = reduce(g, Divisors(words, minimal[:idx] + minimal[idx + 1:]))
        if r:
            reduced.append(_monic(field, r))
    reduced.sort(key=max)
    return [words.unpack_poly(g) for g in reduced]


# --- quotient algebras --------------------------------------------------------


@dataclass
class QuotientAlgebra:
    """Quotient by a Groebner basis, with its staircase basis.

    `names` are the encoded polynomial variables.  A Laurent quotient has a
    `source_ring`, the original Laurent ring in n variables, and its names
    are the n inverse variables followed by the n originals.  `leads[i]` is
    the leading monomial of `gb[i]`.  `budget` is the one the quotient was
    built under; every normal form the quotient computes is reduced under it.
    The packed basis and staircase words are made once, when it is built.
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
    _words: Words = dc_field(init=False, repr=False)
    _divisors: Divisors = dc_field(init=False, repr=False)
    _stair: list = dc_field(init=False, repr=False)
    _index: dict = dc_field(init=False, repr=False)
    _algebra: FiniteAlgebra | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        self._words = Words(len(self.names))
        self._divisors = Divisors(self._words, map(self._words.pack_poly, self.gb))
        self._stair = [self._words.pack(m) for m in self.staircase]
        self._index = {k: i for i, k in enumerate(self._stair)}
        self.unit_index = self._index.get(0)

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
        words = self._words
        return words.unpack_poly(normal_form_poly(
            self.field, words.pack_poly(poly_dict), self._divisors, self.budget))

    def nf_coords(self, p):
        """Coordinates of the normal form over the staircase basis."""
        self._require_finite()
        poly = self.encode_laurent(p) if isinstance(p, LaurentPoly) else p
        return self._coords(self._words.pack_poly(poly))

    def _coords(self, packed):
        """Staircase coordinates of the normal form of a packed polynomial."""
        coords = [self.field.zero] * self.dim
        for k, c in normal_form_poly(
                self.field, packed, self._divisors, self.budget).items():
            coords[self._index[k]] = c
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
        mono, one = self._stair[j], self.field.one
        return linalg.transpose([self._coords({mono + m: one}) for m in self._stair])

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
        """Coordinates of 1; the zero vector of the zero ring (unit ideal)."""
        self._require_finite()
        coords = [self.field.zero] * self.dim
        if self.unit_index is not None:
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
            "field": field_name(self.field),
            "dim": len(self.staircase) if self.finite else None,
            "finite": self.finite,
            "staircase": self.basis_labels() if self.finite else None,
        }
        if self.source_ring is not None:
            data["variables"] = list(self.source_ring.variables)
            data["generators"] = [g.to_json() for g in self.source_gens]
        return data


def _staircase_from_leads(words, leads):
    """BFS over the divisor-closed set of standard monomials, as lead words in
    ascending (degrevlex) order.

    Returns None when some variable has no pure power among the leading
    monomials (infinite-dimensional quotient).
    """
    if 0 in leads:
        return []  # unit ideal
    lead_exps = [words.exps(lm) for lm in leads]
    for v in range(words.n):
        others = words.emask & ~(_FIELD << (W * v))
        if not any(e and not e & others for e in lead_exps):
            return None
    emask, guards = words.emask, words.guards
    steps = [words.pack(tuple(int(w == v) for w in range(words.n)))
             for v in range(words.n)]
    seen = {0}
    queue = [0]
    out = []
    while queue:
        m = queue.pop()
        out.append(m)
        for step in steps:
            nxt = m + step
            if nxt in seen:
                continue
            seen.add(nxt)
            exps = -nxt & emask | guards
            if not any((exps - e) & guards == guards for e in lead_exps):
                queue.append(nxt)
    return sorted(out)


def _build_quotient(field, names, gen_dicts, budget, source_ring=None,
                    source_gens=()):
    gb = buchberger(field, gen_dicts, budget)
    words = Words(len(names))
    leads = [max(map(words.pack, g)) for g in gb]
    staircase = _staircase_from_leads(words, leads)
    return QuotientAlgebra(
        field=field,
        names=tuple(names),
        gb=gb,
        leads=[words.unpack(lm) for lm in leads],
        finite=staircase is not None,
        staircase=[words.unpack(m) for m in staircase] if staircase is not None else [],
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
    """Linear data of the algebra map sending the domain's Laurent generators
    z_i to the codomain monomials `images`, z^(a_i) with coefficient 1.

    Such a map sends z^e to z^(sum_i e_i a_i), so a domain relation and a
    staircase monomial each have one image in the codomain's source ring, and
    their coordinates are its normal form.  The map is well defined exactly
    when every domain relation reduces to zero; the first that does not is
    reported in the result, not raised.
    """
    domain._require_finite()
    codomain._require_finite()
    if domain.source_ring is None or codomain.source_ring is None:
        raise UsageError("domain and codomain must be Laurent quotients")
    n = domain.source_ring.nvars
    if len(images) != n:
        raise UsageError("need one image per domain generator")
    ring, F = codomain.source_ring, codomain.field
    exps = []
    for i, p in enumerate(images):
        if (not isinstance(p, LaurentPoly) or p.ring != ring
                or list(p.terms.values()) != [F.one]):
            raise UsageError(f"image of generator {i} is not a monomial of the "
                             "codomain's ring with coefficient 1")
        exps.append(next(iter(p.terms)))

    def image(e):
        """The exponent sum_i e_i a_i of the image of z^e."""
        return tuple(sum(x * a[j] for x, a in zip(e, exps)) for j in range(ring.nvars))

    for ridx, rel in enumerate(domain.source_gens):
        val = codomain.nf_coords(ring.from_terms(
            (image(e), c) for e, c in rel.terms.items()))
        if any(x != F.zero for x in val):
            return Morphism(False, ridx, None, None, None, domain.dim, codomain.dim)
    # a staircase monomial w^a z^b stands for z^(b - a)
    matrix = linalg.transpose([
        codomain.nf_coords(ring.from_terms(
            [(image(tuple(m[n + i] - m[i] for i in range(n))), F.one)]))
        for m in domain.staircase
    ])
    rk = linalg.rank(F, matrix)
    return Morphism(
        True, None, matrix,
        domain.dim - rk, rk == codomain.dim, domain.dim, codomain.dim,
    )
