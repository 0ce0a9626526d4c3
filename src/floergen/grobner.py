"""Groebner bases and finite-dimensional quotient algebras.

A QuotientAlgebra is a presentation: generators, Groebner basis and
staircase.  The staircase, the standard monomials, is an order ideal walked
as a tree: the parent of a monomial is it divided by its lowest variable, so
each monomial is reached once, and a child m*x_v is tested only against the
leads whose v-exponent is that of m plus one.

A quotient multiplies in one way, by the staircase walk of FGLM (Faugere,
Gianni, Lazard and Mora, JSC 1993): each staircase monomial but 1 is its
parent times one variable, so a linear map commuting with multiplication is
fixed by the images of 1 and of the variables.  The walk multiplies by one
encoded variable u through the border columns "staircase monomial times u",
each a staircase monomial or one normal form under the quotient's budget,
kept in one table per quotient.  It returns sparse columns, one dict {row:
nonzero coefficient} per domain staircase monomial.  Ring maps
(`algebra_morphism`) send 1 to 1 and keep those columns; the columns of the
walk sending 1 to a staircase monomial b and each variable to itself are b's
structure constants in the FiniteAlgebra built when first needed.

Polynomials live in ordinary (nonnegative-exponent) rings as dicts from
exponent tuples to coefficients.  Laurent ideals are handled through the
per-variable inverse encoding: k[z1..zn, z1^-1..zn^-1] becomes
k[w1..wn, z1..zn] modulo the unit relations zi*wi - 1, with the inverse
variables ordered first (largest) so staircase monomials prefer the original
variables.  One encoder, `_encode`, sends z^e to w^max(-e,0) z^max(e,0);
generators and elements are encoded the same way.

Degree reverse lexicographic order is the only monomial order.  Buchberger
takes its S-pairs from a heap in (degrevlex(lcm), i, j) order, the normal
selection strategy with ties broken by index.  A pair whose leading
monomials are coprime is dropped when it is made (Buchberger's product
criterion): it is never queued, and the chain criterion counts it as
handled.  Full final interreduction makes the emitted basis the unique
reduced Groebner basis for degrevlex.  Every reduction step ticks a
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
`normal_form_poly` is the one reduction kernel; Buchberger, `reduce_poly`,
`nf_coords` and the border columns all reduce through it on packed
polynomials.  Its one inner loop is `scalar.add_scaled` with the monomial
offset as its shift, as is the S-polynomial: each term accumulates with
native `+` and `*` and is reduced once, `% p` over F_p, and the walk's
`_times` does the same on sparse columns.  A quotient stores its reduced
basis packed, and its staircase once, as an ascending list of lead words
searched by bisection, 1 first; a ring map's well-definedness check reads
each relation's sparse remainder.
Everything public (`buchberger`'s input and output, and a quotient's `gb`
and `staircase`, views unpacked when first read) is in exponent tuples.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import struct
from dataclasses import dataclass

from . import linalg
from .algebra import FiniteAlgebra
from .errors import AnomalyError, DomainError, ResourceBudgetError, UsageError
from .laurent import LaurentPoly, monomial_str
from .scalar import add_scaled, canonical, field_name

DEFAULT_BUDGET = 10**6
W = 32  # bits per exponent field of a packed word, guard bit included:
# one little-endian uint32 per field, as `Words` packs and unpacks them
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
        self.fields = struct.Struct(f"<{n}I")

    def pack(self, e):
        """The lead word of the exponent tuple e."""
        if len(e) != self.n:
            raise UsageError(f"monomial {e} does not have {self.n} exponents")
        deg = sum(e)
        if deg >= DEGREE_CAP or min(e, default=0) < 0:
            raise DomainError(f"monomial {e} is outside the packed range: "
                              f"exponents >= 0, total degree < 2^{W - 1}")
        return (deg << self.shift) - int.from_bytes(self.fields.pack(*e), "little")

    def variables(self):
        """The lead words of the n variables, pack of the unit vectors."""
        return [(1 << self.shift) - (1 << (W * i)) for i in range(self.n)]

    def unpack(self, k):
        """The exponent tuple of the lead word k."""
        return self.fields.unpack((-k & self.emask).to_bytes(self.shift // 8, "little"))

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
    """Monic packed polynomials tried as reducers in list order: `entries`
    holds (poly, lead word, exponent word of the lead) triples."""

    def __init__(self, field, words, polys=()):
        self.field = field
        self.words = words
        self.entries = []
        for g in polys:
            self.append(g)

    def append(self, g):
        """Add g, scaled to leading coefficient one."""
        lead = max(g)
        if g[lead] != 1:
            inv, p = self.field.inv(g[lead]), self.field.char
            g = {e: inv * c % p if p else inv * c for e, c in g.items()}
        self.entries.append((g, lead, self.words.exps(lead)))


def normal_form_poly(field, poly, basis, budget):
    """Full reduction of the packed polynomial `poly` modulo `basis`, a
    Divisors: each step cancels the leading term with the first divisor in
    list order whose (monic) lead divides it, and ticks the budget once."""
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
                add_scaled(field, work, g, -c, m - lead)
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
    gens = [{e: c for e, c in g.items() if c} for g in gens]
    gens = [g for g in gens if g]
    if not gens:
        raise UsageError("empty generator list")
    words = Words(len(next(iter(gens[0]))))
    basis = Divisors(field, words, map(words.pack_poly, gens))
    entries, guards, ones = basis.entries, words.guards, words.ones

    # `queue` is a heap of (lcm word, (i, j)) over the queued pairs, a total
    # order; `pairs` holds the same pairs for the chain criterion.  A pair
    # whose leads share no variable is never queued (product criterion): its
    # S-polynomial has a standard representation, so the chain criterion may
    # count it as handled from the start
    pairs = set()
    queue = []
    supports = []  # per lead, the guard bits of the fields it uses

    def queue_pairs_with(t):
        _, lead, exps = entries[t]
        support = ((exps | guards) - ones) & guards
        for k in range(t):
            if supports[k] & support:
                pairs.add((k, t))
                heapq.heappush(queue, (words.lcm(entries[k][1], lead), (k, t)))
        supports.append(support)

    for t in range(len(entries)):
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
        chain = False
        lcm_exps = -lcm & words.emask | guards
        for k, (_, _, lead_exps) in enumerate(entries):
            if (lcm_exps - lead_exps) & guards != guards or k in (i, j):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                chain = True
                break
        if chain:
            continue
        f, lf, _ = entries[i]
        g, lg, _ = entries[j]
        s = add_scaled(field, {}, f, 1, lcm - lf)
        h = reduce(add_scaled(field, s, g, -1, lcm - lg), basis)
        if h:
            basis.append(h)
            queue_pairs_with(len(entries) - 1)

    # minimalize: a lead that divides another is never larger, so in
    # ascending lead order an element is redundant exactly when a lead kept
    # before it divides its own; of equal leads the first index is kept
    kept, kept_exps = [], []
    for i in sorted(range(len(entries)), key=lambda i: entries[i][1]):
        exps = entries[i][2] | guards
        if all((exps - e) & guards != guards for e in kept_exps):
            kept.append(i)
            kept_exps.append(entries[i][2])
    minimal = Divisors(field, words, (entries[i][0] for i in sorted(kept)))
    # fully interreduce: each tail against all the minimal elements, in index
    # order.  The reduction meets only monomials below the element's own
    # lead, which that lead cannot divide, so it takes the route and ticks of
    # a reduction against the others; no other lead divides the lead, which
    # stays the first key
    reduced = []
    for g, lead, _ in minimal.entries:
        tail = dict(g)
        r = {lead: tail.pop(lead)}
        r.update(reduce(tail, minimal))
        reduced.append(r)
    reduced.sort(key=max)
    return [words.unpack_poly(g) for g in reduced]


# --- quotient algebras --------------------------------------------------------


class QuotientAlgebra:
    """Quotient by the reduced Groebner basis of `gen_dicts`, with its
    staircase basis.

    `names` are the encoded polynomial variables.  A Laurent quotient has a
    `source_ring`, the original Laurent ring in n variables, and its names
    are the n inverse variables followed by the n originals.  `budget` is the
    one the quotient was built under; every normal form the quotient
    computes is reduced under it.  The reduced basis and the staircase are
    stored packed, as the Divisors `_divisors` and the ascending lead words
    `_stair`, the one stored form of the staircase, searched by bisection;
    `gb` and `staircase` are their exponent-tuple views, unpacked when first
    read.
    """

    def __init__(self, field, names, gen_dicts, budget, source_ring=None,
                 source_gens=()):
        self.field = field
        self.names = tuple(names)
        self.budget = budget
        self.source_ring = source_ring
        self.source_gens = list(source_gens)
        words = Words(len(self.names))
        self._divisors = Divisors(field, words, map(
            words.pack_poly, buchberger(field, gen_dicts, budget)))
        stair = _staircase_from_leads(
            words, [lead for _, lead, _ in self._divisors.entries])
        self.finite = stair is not None
        self._stair = stair or []
        # per variable u: its lead word and the border columns s -> column
        self._border = [(x, {}) for x in words.variables()]
        self._algebra = None

    @functools.cached_property
    def gb(self):
        """The reduced Groebner basis as exponent-tuple dicts, ascending by
        leading monomial."""
        unpack = self._divisors.words.unpack_poly
        return [unpack(g) for g, _, _ in self._divisors.entries]

    @functools.cached_property
    def staircase(self):
        """The standard monomials as exponent tuples, ascending."""
        return list(map(self._divisors.words.unpack, self._stair))

    @property
    def dim(self):
        if not self.finite:
            raise UsageError("quotient is infinite-dimensional")
        return len(self._stair)

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
        words = self._divisors.words
        return words.unpack_poly(normal_form_poly(
            self.field, words.pack_poly(poly_dict), self._divisors, self.budget))

    def _position(self, word):
        """The index of the lead word `word` in the staircase, by bisection;
        a word outside it is an anomaly, never a neighbour's index."""
        i = bisect.bisect_left(self._stair, word)
        if i == len(self._stair) or self._stair[i] != word:
            raise AnomalyError(f"{self._divisors.words.unpack(word)} is not standard")
        return i

    def nf_coords(self, p):
        """Coordinates of the normal form over the staircase basis."""
        coords = [self.field.zero] * self.dim
        poly = self.encode_laurent(p) if isinstance(p, LaurentPoly) else p
        basis = self._divisors
        for k, c in normal_form_poly(self.field, basis.words.pack_poly(poly),
                                     basis, self.budget).items():
            coords[self._position(k)] = c
        return coords

    def basis_labels(self):
        """Staircase monomials as `laurent.monomial_str` labels, the inverse
        variables decoded when Laurent."""
        if self.source_ring is None:
            return [monomial_str(self.names, m) for m in self.staircase]
        n, names = self.source_ring.nvars, self.source_ring.variables
        return [monomial_str(names, [m[n + i] - m[i] for i in range(n)])
                for m in self.staircase]

    def basis_mult_matrix(self, j):
        """Sparse columns of multiplication by the j-th staircase monomial
        b_j: the staircase walk on the quotient itself sending 1 to b_j and
        each variable to itself, so column k, b_j * staircase[k], is b_j
        times the parent of staircase[k] times one variable."""
        self._require_finite()
        return _map_staircase(self, self, [[v] for v in range(len(self.names))],
                              {j: 1})

    def _times(self, vec, u):
        """vec * x_u on sparse staircase coordinates, reduced mod p over F_p
        and canonical over Q; the native ints 0 and 1 are zero and one of
        both.  Column s, the border column staircase[s] * x_u, is taken when
        first needed and kept."""
        F, stair, (x_u, cols), acc = self.field, self._stair, self._border[u], {}
        for s, c in vec.items():
            col = cols.get(s)
            if col is None:
                word = stair[s] + x_u
                i = bisect.bisect_left(stair, word)
                if i < len(stair) and stair[i] == word:
                    col = {i: 1}
                else:
                    col = {self._position(k): d for k, d in normal_form_poly(
                        F, {word: 1}, self._divisors, self.budget).items()}
                cols[s] = col
            for t, d in col.items():
                acc[t] = acc.get(t, 0) + c * d
        p = F.char
        if p:
            return {t: x % p for t, x in acc.items() if x % p}
        return {t: canonical(x) for t, x in acc.items() if x}

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
        """Coordinates of 1, at index 0; the zero vector of the zero ring."""
        n, F = self.dim, self.field
        return [F.one] + [F.zero] * (n - 1) if n else []

    def graded_dims(self):
        """Staircase monomial counts per total degree (degree-graded ideals)."""
        if not self.dim:
            return []
        dims = [0] * (sum(self.staircase[-1]) + 1)  # the last has top degree
        for m in self.staircase:
            dims[sum(m)] += 1
        return dims

    def to_json(self):
        data = {
            "field": field_name(self.field),
            "dim": len(self._stair) if self.finite else None,
            "finite": self.finite,
            "staircase": self.basis_labels() if self.finite else None,
        }
        if self.source_ring is not None:
            data["variables"] = list(self.source_ring.variables)
            data["generators"] = [g.to_json() for g in self.source_gens]
        return data


def _staircase_from_leads(words, leads):
    """The standard monomials, as lead words in ascending (degrevlex) order.

    Returns None when some variable has no pure power among the leading
    monomials (infinite-dimensional quotient), and [] for the unit ideal.

    The standard monomials are an order ideal, walked as a tree: the parent
    of m is m / x_v for the lowest variable v of m, so the children of m are
    m * x_v for v up to that variable, and every monomial is reached once.
    A lead that divides m * x_v but not the standard m has v-exponent
    e_v(m) + 1, so only those leads are tested.
    """
    if 0 in leads:
        return []  # unit ideal
    masks = [_FIELD << (W * v) for v in range(words.n)]
    by_power = {}  # v-field e_v << W*v of a lead, e_v > 0 -> its exponent words
    pure = 0
    for lm in leads:
        exps = words.exps(lm)
        for v, mask in enumerate(masks):
            if exps & mask:
                by_power.setdefault(exps & mask, []).append(exps)
                if exps & mask == exps:
                    pure |= 1 << v
    if pure != (1 << words.n) - 1:
        return None
    guards = words.guards
    units = [1 << (W * v) for v in range(words.n)]
    steps = words.variables()
    out = []
    stack = [(0, 0, words.n - 1)]  # (monomial, its exponent word, top child variable)
    while stack:
        m, exps, top = stack.pop()
        out.append(m)
        for v in range(top + 1):
            nxt = exps + units[v]
            for e in by_power.get(nxt & masks[v], ()):
                if ((nxt | guards) - e) & guards == guards:
                    break
            else:
                stack.append((m + steps[v], nxt, v))
    out.sort()
    return out


def polynomial_quotient(field, names, gen_dicts, budget=None):
    """Quotient of an ordinary polynomial ring by explicit generator dicts."""
    if budget is None:
        budget = Budget()
    return QuotientAlgebra(field, names, gen_dicts, budget)


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
    p = field.char
    for i in range(n):
        rel = {(0,) * (2 * n): -1 % p if p else -1}
        e = [0] * (2 * n)
        e[i] = 1
        e[n + i] = 1
        rel[tuple(e)] = 1
        gen_dicts.append(rel)
    return QuotientAlgebra(field, names, gen_dicts, budget,
                           source_ring=ring, source_gens=gens)


# --- algebra morphisms ---------------------------------------------------------


def _map_staircase(domain: QuotientAlgebra, codomain: QuotientAlgebra, steps,
                   unit_image=None):
    """Sparse columns of the linear map sending 1 to the sparse codomain
    vector `unit_image` (by default the codomain's unit: the ring map) and
    commuting with the domain's encoded variable v acting as the product of
    the codomain's encoded variables in steps[v].  Column k, a dict {row:
    nonzero coefficient} that callers must not change (columns may be
    shared), is the image of the domain's k-th staircase monomial, walked in
    ascending order: each but 1 is an earlier one, its parent, times one
    variable v, so its image is the parent's times the variables in
    steps[v], one at a time, by the codomain's `_times`.
    """
    F = codomain.field
    if unit_image is None:
        unit_image = {0: F.one} if codomain._stair else {}
    dwords, times = domain._divisors.words, codomain._times
    dvars = dwords.variables()
    images = {}
    for m in domain._stair:
        if m == 0:
            image = unit_image
        else:
            # the lowest exponent field that is set names v
            exps = dwords.exps(m)
            v = ((exps & -exps).bit_length() - 1) // W
            image = images[m - dvars[v]]
            for u in steps[v]:
                image = times(image, u)
        images[m] = image
    return list(images.values())


@dataclass
class Morphism:
    well_defined: bool
    failing_relation: int | None
    columns: list | None  # images of the domain's staircase; None when no walk was made
    kernel_dim: int | None
    domain_dim: int
    codomain_dim: int

    @property
    def surjective(self):
        """Onto by rank-nullity; None when the map is not well defined."""
        if self.kernel_dim is None:
            return None
        return self.domain_dim - self.kernel_dim == self.codomain_dim

    @property
    def is_isomorphism(self):
        """Well defined, injective and onto."""
        return bool(self.well_defined and self.kernel_dim == 0 and self.surjective)

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

    Such a map sends z^e to z^(sum_i e_i a_i), so a domain relation has one
    image in the codomain's source ring.  The map is well defined exactly
    when each image leaves no remainder; the first relation that does is
    reported in the result, not raised.
    The columns come from `_map_staircase`, with each encoded variable sent
    to the codomain's encoded variables that make up its image.
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
        if codomain.reduce_poly(codomain.encode_laurent(ring.from_terms(
                (image(e), c) for e, c in rel.terms.items()))):
            return Morphism(False, ridx, None, None, domain.dim, codomain.dim)

    def encoded_factors(a):
        """The codomain's encoded variables, with repetition, whose product
        is the encoding of z^a."""
        (e,) = _encode(ring.monomial(a))
        return [u for u, k in enumerate(e) for _ in range(k)]

    # the encoded w_i stands for z_i^-1
    cols = _map_staircase(domain, codomain, (
        [encoded_factors(tuple(-x for x in a)) for a in exps]
        + [encoded_factors(a) for a in exps]))
    rk = linalg.column_rank(F, cols)
    return Morphism(True, None, cols, domain.dim - rk, domain.dim, codomain.dim)
