"""Structure theory of finite-dimensional commutative algebras.

A FiniteAlgebra has one product representation: its structure constants as
sparse columns, basis_mult[j][k] being the product of basis elements j and k
as a dict {row: nonzero coefficient}.  Every other product (of elements, by
an element, powers, polynomials) is computed from these; `mult` and
`mult_matrix` accumulate with native `+` and `*` and reduce once with `% p`
over F_p.  A QuotientAlgebra is a presentation that yields one from the
columns of grobner's staircase walk.  The minimal
polynomial of an element u is the first linear dependence among 1, u, u^2, ...

Covers the nilradical in characteristic p (iterated Frobenius kernel),
decomposition into local factors, idempotents for generalized eigenspace
splittings, and m-adic filtration profiles.  Idempotents have one
construction, the CRT splitter `split_along`: from pairwise coprime factors
q_i of a polynomial mu it takes one inverse of mu / q_i modulo each q_i.
Minimal polynomials (a Krylov walk) and polynomials in an element (Horner's
rule) step with `mult`, products on the sparse columns, so no dense matrix
of the element is built.  A block e*A is read from one elimination: the
reduced rows R of the multiplication matrix of e, a projection onto e*A; a
block product scatters R's sparse columns over the entries of a structure
column with `scalar.add_scaled`, so its cost follows the nonzero entries it
touches rather than the dimension of the block.

The local decomposition works on Berlekamp's subalgebra: in a commutative
finite F_p-algebra the solutions of x^p = x are the F_p-span S of the
primitive idempotents, so one kernel, ker(Frob - 1), gives both the number
of local factors (dim S) and elements that separate them.  Starting from the
unit, each basis vector s of S refines every current idempotent e along the
factored minimal polynomial of s on e*A, the first linear dependence among
e, s e, s^2 e, ...; its roots are the values of s on the local factors
under e.  A basis of S separates every pair of local factors, so the
refinement ends with dim S idempotents; fewer is an anomaly.
Only the leaves are restricted to blocks.  When a leaf's residue field is
F_p, each generator is c + (a radical element), and c is read off a
functional that kills the radical, with no factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce

from . import linalg
from .errors import AnomalyError, DomainError, UsageError
from .scalar import (DEFAULT_SEED, PrimeField, UniPoly, add_scaled, clear_denominators,
                     square_and_multiply, strip_roots, univariate_factor)


@dataclass
class FiniteAlgebra:
    """Algebra given by its structure constants as sparse columns.

    basis_mult[j][k] is basis_j * basis_k as a dict from coordinate index to
    nonzero coefficient, so basis_mult[j] lists the columns of v ->
    basis_j * v.  No column stores a zero, so equal products are equal
    dicts.  The unit and the designated generators are coordinate vectors;
    the generators give the points of the local factors.
    """

    field: object
    basis_mult: list
    unit: list
    generators: list = dc_field(default_factory=list)

    @property
    def dim(self):
        return len(self.basis_mult)

    @classmethod
    def from_quotient(cls, qa):
        """The quotient's algebra on the staircase walk's columns; for a
        Laurent quotient the generators are the original variables."""
        ring = qa.source_ring
        n = ring.nvars if ring else 0
        return cls(
            field=qa.field,
            basis_mult=[qa.basis_mult_matrix(j) for j in range(qa.dim)],
            unit=qa.unit_coords(),
            generators=[qa.nf_coords(ring.variable(i)) for i in range(n)],
        )

    def mult(self, u, v):
        """u * v = sum_{j,k} u_j v_k basis_mult[j][k]."""
        if len(u) != self.dim or len(v) != self.dim:
            raise UsageError(f"vector length does not match algebra dim {self.dim}")
        zero, p = self.field.zero, self.field.char
        out = [zero] * self.dim
        nonzero_v = [(k, b) for k, b in enumerate(v) if b]
        for a, cols in zip(u, self.basis_mult):
            if a:
                for k, b in nonzero_v:
                    c = a * b
                    for r, x in cols[k].items():
                        out[r] += c * x
        return [x % p for x in out] if p else out

    def mult_matrix(self, u):
        """Matrix of v -> u * v, its column s being sum_j u_j basis_mult[j][s]."""
        if len(u) != self.dim:
            raise UsageError(f"vector length does not match algebra dim {self.dim}")
        zero, p = self.field.zero, self.field.char
        out = [[zero] * self.dim for _ in range(self.dim)]
        for c, cols in zip(u, self.basis_mult):
            if c:
                for s, col in enumerate(cols):
                    for r, x in col.items():
                        out[r][s] += c * x
        return [[x % p for x in row] for row in out] if p else out

    def power(self, u, e: int):
        return square_and_multiply(list(self.unit), u, e, self.mult)

    def eval_poly(self, poly: UniPoly, u):
        """poly(u) by Horner's rule, each step one product by u."""
        p = self.field.char
        acc = [0] * self.dim
        for c in reversed(poly.coeffs):
            acc = [x + c * y for x, y in zip(self.mult(u, acc), self.unit)]
            if p:
                acc = [x % p for x in acc]
        return acc

    def is_commutative(self):
        m = self.basis_mult
        return all(m[i][j] == m[j][i] for i in range(self.dim) for j in range(i))

    def is_associative(self):
        """(b_i b_j) b_k == b_i (b_j b_k) for all basis elements."""
        n = self.dim
        basis = linalg.identity(self.field, n)
        products = [[self.mult(b, c) for c in basis] for b in basis]
        return all(self.mult(products[i][j], basis[k]) == self.mult(basis[i], products[j][k])
                   for i in range(n) for j in range(n) for k in range(n))


def sparse(v):
    """The nonzero entries of the vector v as a sparse column {index: entry}."""
    return {i: x for i, x in enumerate(v) if x}


def krylov_min_poly(A: FiniteAlgebra, u, v):
    """The first linear dependence among v, u v, u^2 v, ..., each step one
    product by u: for v = e an idempotent, p(u) e = 0 iff p(u) kills e*A, so
    this is the minimal polynomial of u on e*A, and of u itself for the unit."""
    F = A.field
    powers = [list(v)]
    while True:
        r, pivots = linalg.rref(F, linalg.transpose(powers))
        k = len(powers) - 1
        if k not in pivots:  # u^k = sum of r[i][k] u^i over i < k
            return UniPoly(F, [-row[k] for row in r[:k]] + [1])
        powers.append(A.mult(u, powers[-1]))


def _require_char_p(A: FiniteAlgebra):
    if not isinstance(A.field, PrimeField):
        raise UsageError("operation requires a prime field F_p")
    if not A.is_commutative():
        raise UsageError("operation requires a commutative algebra")


def frobenius_matrix_of(A: FiniteAlgebra):
    """Matrix of x -> x^p, F_p-linear in characteristic p."""
    p = A.field.char
    return linalg.transpose([A.power(b, p) for b in linalg.identity(A.field, A.dim)])


def radical_char_p(A: FiniteAlgebra):
    """Nilradical basis: kernel of the k-fold p-power map with p^k >= dim."""
    _require_char_p(A)
    F = A.field
    k, pk = 1, F.char
    while pk < A.dim:
        k, pk = k + 1, pk * F.char
    return linalg.kernel_basis(F, linalg.mat_pow(F, frobenius_matrix_of(A), k))


@dataclass
class LocalFactor:
    idempotent: list
    algebra: FiniteAlgebra
    maximal_ideal: list
    point: list | None

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def residue_degree(self):
        return self.algebra.dim - len(self.maximal_ideal)


def restrict_to_block(A: FiniteAlgebra, idempotent):
    """Sub-FiniteAlgebra on the ideal e*A, with unit e.

    Returns (block, basis, coords).  L_e, multiplication by e, projects onto
    e*A, so the nonzero rows R of rref(L_e) satisfy R L_e = R: the pivot
    columns e*b_p of L_e are the basis, coords(v) = R v are the coordinates
    of e*v, and the block product of e*b_p and e*b_q is R basis_mult[p][q],
    scattered over R's sparse columns at the entries of basis_mult[p][q].
    """
    F = A.field
    m = A.mult_matrix(idempotent)
    reduced, pivots = linalg.rref(F, m)
    rows = reduced[:len(pivots)]

    def coords(v):
        return linalg.mat_vec(F, rows, v)

    rcols = [sparse(c) for c in zip(*rows)]

    def product(col):
        out = {}
        for r, x in col.items():
            add_scaled(F, out, rcols[r], x)
        return out

    block = FiniteAlgebra(
        field=F,
        basis_mult=[[product(A.basis_mult[i][j]) for j in pivots] for i in pivots],
        unit=coords(A.unit),
        generators=[coords(g) for g in A.generators],
    )
    return block, [[row[c] for row in m] for c in pivots], coords


def split_along(A: FiniteAlgebra, u, idempotent, factors):
    """CRT idempotents from pairwise coprime factors f^k of a polynomial mu
    that kills the element u on e*A (its minimal or characteristic
    polynomial), e being the idempotent: the i-th one projects e*A onto the
    kernel of f_i(u)^k_i.
    With q_i = f_i^k_i and cof_i = mu / q_i, one inverse s_i of cof_i
    modulo q_i gives the CRT polynomial cof_i s_i of degree < deg mu, which
    is 1 modulo q_i and 0 modulo every other q_j; for a linear f_i and
    k_i = 1 it is the Lagrange form cof_i / cof_i(a).  Each is cleared to an
    integer polynomial h and one denominator d, so over Q `eval_poly` runs
    on ints whenever u is integral; over F_p, d is 1."""
    F = A.field
    qs = [reduce(UniPoly.__mul__, [f] * k) for f, k in factors]
    mu = reduce(UniPoly.__mul__, qs)
    out = []
    for q in qs:
        cof = mu // q
        g, (s, _) = _ext_gcd(cof % q, q)  # g is a nonzero constant
        h, d = clear_denominators((cof * s).scale(F.inv(g.coeffs[0])).coeffs)
        x = A.mult(A.eval_poly(UniPoly(F, h), u), idempotent)
        out.append(x if d == 1 else [F.div(y, d) for y in x])
    return out


def _ext_gcd(a: UniPoly, b: UniPoly):
    F = a.field
    r0, r1 = a, b
    s0, s1 = UniPoly(F, [1]), UniPoly(F, [])
    t0, t1 = UniPoly(F, []), UniPoly(F, [1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, (s0, t0)


def local_decompose(A: FiniteAlgebra, seed: int = DEFAULT_SEED):
    """Pairwise-orthogonal idempotents with local factors, summing to 1.
    `seed` drives the factorization randomness.  The zero algebra has none."""
    _require_char_p(A)
    if A.dim == 0:
        return []
    F = A.field
    fixed = linalg.kernel_basis(
        F, linalg.mat_sub(F, frobenius_matrix_of(A), linalg.identity(F, A.dim)))
    idempotents = [A.unit]
    for s in fixed:
        if len(idempotents) == len(fixed):
            break
        refined = []
        for e in idempotents:
            factors = univariate_factor(krylov_min_poly(A, s, e), seed)
            refined.extend(split_along(A, s, e, factors))
        idempotents = refined
    if len(idempotents) < len(fixed):
        raise AnomalyError(
            f"algebra of dim {A.dim} has {len(fixed)} local factors "
            f"but its Frobenius-fixed elements split it into {len(idempotents)}"
        )
    finished = [_finalize_factor(A, e) for e in idempotents]
    return sorted(finished, key=lambda lf: (lf.dim, lf.residue_degree, tuple(lf.idempotent)))


def _finalize_factor(A, e):
    block = restrict_to_block(A, e)[0]
    rad = radical_char_p(block)
    point = None
    if block.dim - len(rad) == 1 and block.generators:
        # block / rad = F_p, so each generator is c + (radical element): c is
        # phi(g) / phi(1) for the functional phi that kills the radical
        F = block.field
        p = F.char
        phi = linalg.kernel_basis(F, rad)[0] if rad else [1]

        def at(v):
            return sum([a * b for a, b in zip(phi, v)]) % p

        scale = F.inv(at(block.unit))
        point = [at(g) * scale % p for g in block.generators]
    return LocalFactor(
        idempotent=e,
        algebra=block,
        maximal_ideal=rad,
        point=point,
    )


def bezout_idempotents(A: FiniteAlgebra, a, lam):
    """Split off the generalized lam-eigenspace of mult-by-a.

    mu = minimal polynomial of a (by Krylov iteration from the unit; its
    roots are those of chi, so its idempotents too) = (t - lam)^m q with
    q(lam) != 0; the CRT idempotents of ((t - lam)^m, q) are (e, e_perp).
    Returns (e, e_perp, found) with e = 0 and found=False when lam is not a root.
    """
    F = A.field
    factors, q = strip_roots(krylov_min_poly(A, a, A.unit), [lam])
    if not factors:
        return [F.zero] * A.dim, list(A.unit), False
    e, e_perp = split_along(A, a, A.unit, factors + [(q, 1)])
    return e, e_perp, True


def madic_profile(factor: LocalFactor):
    """Graded dimensions dim(m^p / m^(p+1)) until the filtration dies."""
    block = factor.algebra
    F = block.field
    if not factor.maximal_ideal:
        return [block.dim]
    profile = []
    current = [list(v) for v in factor.maximal_ideal]
    prev_dim = block.dim
    while current:
        d = linalg.rank(F, current)
        profile.append(prev_dim - d)
        prev_dim = d
        nxt = []
        for v in current:
            for w in factor.maximal_ideal:
                nxt.append(block.mult(v, w))
        basis = linalg.image_basis(F, linalg.transpose(nxt))
        if len(basis) == d:
            raise DomainError("filtration does not terminate; factor not local")
        current = basis
    profile.append(prev_dim)
    if profile and profile[-1] == 0:
        profile.pop()
    return profile
