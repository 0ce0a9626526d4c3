"""Finite-dimensional Z/2-graded A-infinity structures, Hochschild cochains,
and the chain-level maps used in the closed-open comparison arguments.

Conventions, fixed once and used everywhere:

  * operation tensors are keyed by input tuples in written order, so the key
    (i_k, ..., i_1) holds mu^k(b_{i_k}, ..., b_{i_1});
  * maltese_i is the shifted degree sum |a_1| + ... + |a_i| - i of the i
    rightmost inputs;
  * a dg-algebra embeds via mu^1(a) = (-1)^{|a|} d a and
    mu^2(a2, a1) = (-1)^{|a1|} a2 a1;
  * the opposite structure reverses inputs with the sign
    (-1)^{triangle_l + l - 1}, triangle_l = sum_{s<t} (|c_s|-1)(|c_t|-1);
  * the Hochschild differential with coefficients in a bimodule P is
      mu^1_CC(phi) = sum (-1)^{|phi| maltese_l + 1}
                         mu^{k|1|l}_P(..., phi(...), ...^l)
                   + sum (-1)^{|phi| + maltese_i} phi(..., mu(...), ...^i),
    and the diagonal bimodule mu^{k|1|l}(a..., b, a'...) =
    (-1)^{maltese_l + 1} mu^{k+1+l}(a..., b, a'...) recovers the classical
    differential on CC^*(A, A);
  * hom_k(M, N) of left modules is a bimodule via
      mu^{0|1|0}(z)(m) = (-1)^{|m|} (mu_N^1(z(m)) - z(mu_M^1(m))),
      mu^{k|1|0}(a..., z)(m) = (-1)^{|m|} mu_N(a..., z(m)),
      mu^{0|1|l}(z, a...)(m) = (-1)^{|m|+1} z(mu_M(a..., m)),
    all other components zero; a structure viewed as a module over itself
    carries mu_M = -mu.

Arities start at 1: the structure constructor rejects a curved mu^0 (and any
lower arity).  Truncation discipline: a structure is complete, so operations
above its arity cap vanish and the constructor rejects any that are given.
Cochains carry a length cap; every operation reports the component range on
which the computation is exact (`exact window`, here the smaller of the input
window and the output cap), and test assertions only fire inside it.

The chain-level differentials scatter: they loop over the nonzero entries of
their input (operations, cochain components, premorphism components) and add
into every output they reach, so their cost follows the nonzero terms rather
than the number of output keys.  The "insert mu^j inside" term they share is
`_expansions`, which reads the operations through an index by output.
Modules and bimodules are finite sparse tensors, built once from the
structure's operations (so bounded by its arity cap): a module is indexed by
module input and by module output, a bimodule by its slot p, and the action
terms scatter over those entries.

Arithmetic is plain ring arithmetic.  A sign (-1)^e times c is c or -c by
the parity of e, never a field multiplication; coefficients combine with
`+`, `*` and unary `-`, and a sum is reduced `% p` only over F_p.  Over Q
the structure constructor stores an integral coefficient as an int, which
compares, hashes and prints as the equal Fraction does, so an integral
structure runs on ints and a non-integral one runs the same code on
Fractions.

Module/bimodule coherence is verified operationally on a spanning set of
elementary cochains within the window: each elementary input is
differentiated once, and d^2 of an input is assembled, by linearity, from
the memoized columns of the terms of its d.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebra import FiniteAlgebra
from .errors import DomainError, UsageError
from .scalar import Field, field_name, parse_field


def _sign(field, exponent):
    """(-1)^exponent as a field element; the chain-level loops negate by
    parity instead of multiplying by this."""
    return 1 if exponent % 2 == 0 else field.neg(1)


def _vadd(field, target, src, coeff):
    """target += coeff * src on sparse vectors, with the raw operators.  Over
    F_p each sum is reduced `% p`, so coeff may be any integer, -c included."""
    p = field.char
    for i, c in src.items():
        acc = target.get(i, 0) + coeff * c
        if p:
            acc %= p
        if acc:
            target[i] = acc
        else:
            target.pop(i, None)


@dataclass
class AInftyStructure:
    field: Field
    degrees: list
    arity_cap: int
    ops: dict  # k -> {written-order input tuple -> {output index -> coeff}}
    unit: int | None = None
    labels: list | None = None
    # output index -> [(j, inputs, coeff)] over every mu^j, by increasing j
    by_output: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.labels is None:
            self.labels = [f"b{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise UsageError(f"{len(self.labels)} labels for a basis of dim {self.dim}")
        basis = range(self.dim)
        if self.unit is not None and self.unit not in basis:
            raise UsageError(f"unit {self.unit} is not a basis index below {self.dim}")
        p = self.field.char
        ops = {}
        for k, tensor in self.ops.items():
            if k < 1:
                raise UsageError(
                    f"mu^{k} given: arity {k} is below 1 (curved structures "
                    "are not supported)"
                )
            if k > self.arity_cap:
                raise UsageError(f"mu^{k} given above the arity cap {self.arity_cap}")
            new = ops[k] = {}
            for key, out in tensor.items():
                if len(key) != k:
                    raise UsageError(f"arity-{k} tensor keyed by {len(key)} inputs")
                if any(i not in basis for i in (*key, *out)):
                    raise UsageError(
                        f"mu^{k}{key} names a basis index outside 0..{self.dim - 1}"
                    )
                want = (sum(self.degrees[i] for i in key) + 2 - k) % 2
                # canonical coefficients: reduced mod p, and over Q an
                # integral one as an int, so integral structures run on ints
                new[key] = out = {
                    idx: c % p if p else (c.numerator if c.denominator == 1 else c)
                    for idx, c in out.items()
                }
                for idx, c in out.items():
                    if c and self.degrees[idx] % 2 != want:
                        raise UsageError(
                            f"mu^{k}{key} output {idx} violates degree parity"
                        )
        self.ops = ops
        self.by_output = {}
        for k in sorted(ops):
            for key, out in ops[k].items():
                for idx, c in out.items():
                    self.by_output.setdefault(idx, []).append((k, key, c))

    @property
    def dim(self):
        return len(self.degrees)

    def op(self, k, key):
        """Sparse output of mu^k on a written-order basis tuple."""
        return self.ops.get(k, {}).get(tuple(key), {})

    def maltese(self, key) -> int:
        """Shifted degree sum of a written-order tuple (all of it)."""
        return sum(self.degrees[i] - 1 for i in key) % 2

    def mu1_matrix(self):
        F = self.field
        m = linalg.zeros(F, self.dim, self.dim)
        for j in range(self.dim):
            for i, c in self.op(1, (j,)).items():
                m[i][j] = c
        return m

    def to_json(self):
        F = self.field
        return {
            "field": field_name(F),
            "degrees": list(self.degrees),
            "unit": self.unit,
            "labels": list(self.labels),
            "mu": {
                str(k): [
                    {
                        "inputs": list(key),
                        "output": {str(i): F.to_str(c) for i, c in sorted(out.items())},
                    }
                    for key, out in sorted(tensor.items())
                ]
                for k, tensor in sorted(self.ops.items())
            },
        }

    @classmethod
    def from_json(cls, data):
        try:
            F = parse_field(data["field"])
            degrees = [int(d) % 2 for d in data["degrees"]]
            ops = {}
            for k_str, entries in data.get("mu", {}).items():
                k = int(k_str)
                tensor = {}
                for entry in entries:
                    key = tuple(int(i) for i in entry["inputs"])
                    out = {
                        int(i): F.from_str(str(c))
                        for i, c in entry["output"].items()
                    }
                    out = {i: c for i, c in out.items() if c}
                    if out:
                        tensor[key] = out
                if tensor:
                    ops[k] = tensor
            unit = data.get("unit")
            unit = int(unit) if unit is not None else None
            cap = max(ops, default=1)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed A-infinity JSON: {exc}") from exc
        return cls(
            field=F,
            degrees=degrees,
            arity_cap=cap,
            ops=ops,
            unit=unit,
            labels=list(data.get("labels", [])) or None,
        )


def from_dga(field, degrees, diff, prod, unit=None, labels=None) -> AInftyStructure:
    """Embed a dg-algebra: diff[j] = d(b_j) sparse, prod[(i, j)] = b_i b_j."""
    dim = len(degrees)
    mu1 = {}
    for j in range(dim):
        out = {}
        for i, c in diff.get(j, {}).items():
            if c:
                out[i] = field.mul(_sign(field, degrees[j]), c)
        if out:
            mu1[(j,)] = out
    mu2 = {}
    for (i, j), val in prod.items():
        out = {}
        for r, c in val.items():
            if c:
                out[r] = field.mul(_sign(field, degrees[j]), c)
        if out:
            mu2[(i, j)] = out
    ops = {}
    if mu1:
        ops[1] = mu1
    if mu2:
        ops[2] = mu2
    return AInftyStructure(
        field=field, degrees=list(degrees), arity_cap=2, ops=ops,
        unit=unit, labels=labels,
    )


# --- relations and basic constructions -----------------------------------------


def _expansions(A: AInftyStructure, key, room, flip=0):
    """Every key that contracts to `key` by one mu^j, 1 <= j <= room + 1,
    with (-1)^{flip + maltese of the inputs right of mu^j} times mu^j's
    coefficient on the entry of `key` it replaces.  Over F_p the yielded
    coefficient may be negative; `_vadd` reduces it."""
    degrees = A.degrees
    odd = flip % 2
    for pos in range(len(key) - 1, -1, -1):
        b = key[pos]
        inserts = A.by_output.get(b)
        if inserts:
            left, right = key[:pos], key[pos + 1 :]
            for j, inner, c in inserts:
                if j > room + 1:
                    break
                yield left + inner + right, -c if odd else c
        odd ^= (degrees[b] - 1) % 2  # b joins the inputs right of the next one


def ainfty_residuals(A: AInftyStructure, up_to_arity: int):
    """All nonzero A-infinity relation residuals up to the given arity,
    ordered by (arity, inputs)."""
    F = A.field
    totals = {}
    for k, tensor in A.ops.items():
        for outer, out in tensor.items():
            for key, c in _expansions(A, outer, up_to_arity - k):
                _vadd(F, totals.setdefault(key, {}), out, c)
    return [
        (len(key), key, total)
        for key, total in sorted(totals.items(), key=lambda kv: (len(kv[0]), kv[0]))
        if total
    ]


def check_ainfty_relations(A: AInftyStructure, up_to_arity: int) -> bool:
    return not ainfty_residuals(A, up_to_arity)


def opposite(A: AInftyStructure) -> AInftyStructure:
    """Reverse inputs with the sign (-1)^{triangle_l + l - 1}."""
    F = A.field
    ops = {}
    for l, tensor in A.ops.items():
        new = {}
        for key, out in tensor.items():
            degs = [A.degrees[i] for i in key]
            tri = 0
            for s in range(len(degs)):
                for t in range(s + 1, len(degs)):
                    tri += (degs[s] - 1) * (degs[t] - 1)
            sgn = _sign(F, tri + l - 1)
            rev = tuple(reversed(key))
            entry = {i: F.mul(sgn, c) for i, c in out.items()}
            if entry:
                new[rev] = entry
        if new:
            ops[l] = new
    return AInftyStructure(
        field=F, degrees=list(A.degrees), arity_cap=A.arity_cap, ops=ops,
        unit=A.unit, labels=list(A.labels),
    )


@dataclass
class GradedAlgebra:
    """Cohomology output: representatives, degrees, and the induced product."""

    field: Field
    degrees: list
    representatives: list  # cocycle coordinate vectors in the ambient A
    products: list  # products[i][j] = coordinate vector in this basis
    unit: int | None = None

    @property
    def dim(self):
        return len(self.degrees)

    def graded_opposite(self) -> "GradedAlgebra":
        F = self.field
        prods = [
            [
                [
                    F.mul(_sign(F, self.degrees[i] * self.degrees[j]), c)
                    for c in self.products[j][i]
                ]
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]
        return GradedAlgebra(F, list(self.degrees), list(self.representatives),
                             prods, self.unit)


def cohomology(A: AInftyStructure) -> GradedAlgebra:
    """ker mu^1 / im mu^1 with product [c2][c1] = (-1)^{|c1|} [mu^2(c2, c1)]."""
    F = A.field
    d = A.mu1_matrix()
    if any(any(x != F.zero for x in row) for row in linalg.mat_mul(F, d, d)):
        raise DomainError("mu^1 does not square to zero")
    ker = linalg.kernel_basis(F, d)
    im = linalg.image_basis(F, d)
    # im is independent, so the greedy pick over im + ker keeps all of im
    reps = linalg.image_basis(F, linalg.transpose(im + ker))[len(im):]
    # coordinates in the quotient: solve against [reps | im]
    proj_mat = linalg.transpose(reps + im) if reps or im else []

    def quotient_coords(vec):
        if not reps:
            return []
        sol = linalg.solve(F, proj_mat, vec)
        if sol is None:
            raise DomainError("product of cocycles is not a cocycle")
        return sol[: len(reps)]

    def mu2_elem(u, v):
        out = {}
        for i, cu in enumerate(u):
            if cu == F.zero:
                continue
            for j, cv in enumerate(v):
                if cv == F.zero:
                    continue
                _vadd(F, out, A.op(2, (i, j)), F.mul(cu, cv))
        dense = [F.zero] * A.dim
        for i, c in out.items():
            dense[i] = c
        return dense

    degrees = []
    for r in reps:
        degs = {A.degrees[i] for i, c in enumerate(r) if c != F.zero}
        if len(degs) != 1:
            raise DomainError("inhomogeneous cohomology representative")
        degrees.append(degs.pop())
    products = []
    for i, u in enumerate(reps):
        row = []
        for j, v in enumerate(reps):
            prod = mu2_elem(u, v)
            sgn = _sign(F, degrees[j])
            row.append([F.mul(sgn, c) for c in quotient_coords(prod)])
        products.append(row)
    unit = None
    if A.unit is not None:
        unit_vec = [F.one if i == A.unit else F.zero for i in range(A.dim)]
        coords = quotient_coords(unit_vec)
        nz = [i for i, c in enumerate(coords) if c != F.zero]
        if len(nz) == 1 and coords[nz[0]] == F.one:
            unit = nz[0]
    # spot-check associativity of the induced product
    n = len(reps)
    induced = FiniteAlgebra(
        field=F,
        dim=n,
        labels=[f"c{i}" for i in range(n)],
        basis_mult=[linalg.transpose(row) for row in products],
        unit=None if unit is None else [F.one if k == unit else F.zero for k in range(n)],
    )
    if not induced.is_associative():
        raise DomainError("induced product is not associative")
    return GradedAlgebra(F, degrees, reps, products, unit)


# --- modules and bimodules ------------------------------------------------------


@dataclass
class Module:
    """Left module over A as a finite sparse tensor: ops[(a_key, m)] is the
    sparse output of the operation on r = len(a_key) >= 0 algebra inputs in
    written order and module input m; r = 0 is the differential.  The
    operations are indexed by module input and by module output, each list
    by increasing r."""

    algebra: AInftyStructure
    degrees: list
    ops: dict  # (a_key, m_in) -> {m_out: coeff}, no empty outputs
    # m_in -> [(a_key, output)] and m_out -> [(a_key, m_in, coeff)]
    by_input: dict = dc_field(init=False, repr=False, compare=False)
    by_output: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_input, self.by_output = {}, {}
        for (a_key, m), out in sorted(self.ops.items(), key=lambda kv: len(kv[0][0])):
            self.by_input.setdefault(m, []).append((a_key, out))
            for m_out, c in out.items():
                self.by_output.setdefault(m_out, []).append((a_key, m, c))

    @property
    def dim(self):
        return len(self.degrees)

    def action(self, r, a_key, m):
        """Sparse output on the r = len(a_key) algebra inputs a_key and module
        input m; like `A.op`, a shared dict that callers only read."""
        return self.ops.get((tuple(a_key), m), {})


def self_module(A: AInftyStructure) -> Module:
    """A as a left module over itself, with the standard sign mu_M = -mu."""
    F = A.field
    ops = {
        (key[:-1], key[-1]): {i: F.neg(c) for i, c in out.items()}
        for tensor in A.ops.values()
        for key, out in tensor.items()
        if out
    }
    return Module(algebra=A, degrees=list(A.degrees), ops=ops)


@dataclass
class BimoduleStructure:
    """Bimodule over A as a finite sparse tensor: ops[(left, p, right)] is
    the sparse output of mu^{k|1|l}(left..., b_p, right...), k = len(left),
    l = len(right).  The operations are indexed by the bimodule slot p, each
    list by increasing k + l."""

    algebra: AInftyStructure
    degrees: list
    labels: list
    ops: dict  # (left_key, p_in, right_key) -> {p_out: coeff}, no empty outputs
    # p_in -> [(k + l, left_key, right_key, maltese(right_key), output)]
    by_slot: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = self.algebra
        self.by_slot = {}
        for (left, p, right), out in sorted(
            self.ops.items(), key=lambda kv: len(kv[0][0]) + len(kv[0][2])
        ):
            self.by_slot.setdefault(p, []).append(
                (len(left) + len(right), left, right, A.maltese(right), out)
            )

    @property
    def dim(self):
        return len(self.degrees)

    def op(self, k, l, left_key, p_idx, right_key):
        """Sparse output of mu^{k|1|l}; a shared dict that callers only read."""
        return self.ops.get((tuple(left_key), p_idx, tuple(right_key)), {})

    def tensor(self, k, l):
        """Materialize one operation family (used by equality tests)."""
        return {
            key: dict(val)
            for key, val in self.ops.items()
            if len(key[0]) == k and len(key[2]) == l
        }


def diagonal_bimodule(A: AInftyStructure) -> BimoduleStructure:
    """mu^{k|1|l}(a..., b, a'...) =
    (-1)^{maltese(a'...) + 1} mu^{k+1+l}(a..., b, a'...)."""
    F = A.field
    ops = {}
    for tensor in A.ops.values():
        for key, out in tensor.items():
            if not out:
                continue
            for pos, b in enumerate(key):
                right = key[pos + 1 :]
                odd = (A.maltese(right) + 1) % 2
                ops[(key[:pos], b, right)] = {
                    i: F.neg(c) if odd else c for i, c in out.items()
                }
    return BimoduleStructure(
        algebra=A, degrees=list(A.degrees), labels=list(A.labels), ops=ops
    )


def hom_bimodule(M: Module, N: Module) -> BimoduleStructure:
    """hom_k(M, N) with matrix-unit basis z_{p,q}: m_q -> n_p, index
    p * dim M + q."""
    A = M.algebra
    F = A.field
    dim_m = M.dim
    units = [(p, q) for p in range(N.dim) for q in range(dim_m)]
    degrees = [(N.degrees[p] + M.degrees[q]) % 2 for p, q in units]
    labels = [f"E[{p},{q}]" for p, q in units]
    ops = {}
    # mu^{k|1|0}(a..., z_{p,q}) = (-1)^{|m_q|} mu_N(a..., n_p) m_q^*; at
    # k = 0 this and the next term share the key of mu^{0|1|0}
    for (left, p), out in N.ops.items():
        for q in range(dim_m):
            _vadd(F, ops.setdefault((left, p * dim_m + q, ()), {}),
                  {pp * dim_m + q: c for pp, c in out.items()},
                  -1 if M.degrees[q] % 2 else 1)
    # mu^{0|1|l}(z_{p,q}, a...) = (-1)^{|m_qq|+1} z_{p,q} mu_M(a..., m_qq)
    for (right, qq), out in M.ops.items():
        sgn = 1 if M.degrees[qq] % 2 else -1
        for q, c in out.items():
            for p in range(N.dim):
                _vadd(F, ops.setdefault(((), p * dim_m + q, right), {}),
                      {p * dim_m + qq: c}, sgn)
    ops = {key: val for key, val in ops.items() if val}
    return BimoduleStructure(algebra=A, degrees=degrees, labels=labels, ops=ops)


# --- Hochschild cochains ----------------------------------------------------------


@dataclass
class HochschildCochain:
    """Components phi^r: A[1]^{x r} -> coefficient space, r <= cap."""

    algebra: AInftyStructure
    coeff_degrees: list
    degree: int
    cap: int
    components: dict = dc_field(default_factory=dict)
    exact_upto: int | None = None  # None: exact on every stored component

    def component(self, r):
        return self.components.get(r, {})

    def value(self, r, key):
        return self.component(r).get(tuple(key), {})

    def set_value(self, r, key, val):
        if val:
            self.components.setdefault(r, {})[tuple(key)] = val

    def window(self):
        return self.cap if self.exact_upto is None else self.exact_upto

    def is_zero_within(self, upto):
        for r, tensor in self.components.items():
            if r > upto:
                continue
            for val in tensor.values():
                if val:
                    return False
        return True


def unit_cochain(A: AInftyStructure) -> HochschildCochain:
    if A.unit is None:
        raise UsageError("structure has no designated unit")
    phi = HochschildCochain(A, list(A.degrees), 0, cap=10**9)
    phi.set_value(0, (), {A.unit: A.field.one})
    return phi


def element_cochain(A: AInftyStructure, coords, degree=None) -> HochschildCochain:
    F = A.field
    val = {i: c for i, c in enumerate(coords) if c != F.zero}
    degs = {A.degrees[i] for i in val}
    if degree is None:
        if len(degs) > 1:
            raise UsageError("element is not homogeneous; pass its degree")
        degree = degs.pop() if degs else 0
    phi = HochschildCochain(A, list(A.degrees), degree, cap=10**9)
    phi.set_value(0, (), val)
    return phi


def hochschild_diff(A: AInftyStructure, P: BimoduleStructure,
                    phi: HochschildCochain, cap: int | None = None) -> HochschildCochain:
    """The bimodule Hochschild differential; exact on components within the
    window annotation of the result.  Component r of the output only reads
    phi^{<= r}, so the window is min(cap, phi window)."""
    F = A.field
    if cap is None:
        cap = phi.cap
    if cap >= 10**9:
        raise UsageError("pass an explicit length cap for unbounded cochains")
    out = HochschildCochain(
        A, list(P.degrees), (phi.degree + 1) % 2,
        cap=cap,
        exact_upto=min(phi.window(), cap),
    )
    top = out.window()
    degree = phi.degree % 2
    totals = {}
    for j, tensor in phi.components.items():
        if j > top:
            continue
        room = top - j
        for mid, phi_val in tensor.items():
            # bimodule action terms (-1)^{|phi| maltese_l + 1}
            # mu^{k|1|l}(left..., phi(mid...), right...)
            for p, c in phi_val.items():
                for extra, left, right, malt, res in P.by_slot.get(p, ()):
                    if extra > room:
                        break
                    _vadd(F, totals.setdefault(left + mid + right, {}), res,
                          c if degree * malt else -c)
            # inner mu insertions phi(..., mu(...), ...)
            for key, c in _expansions(A, mid, room, degree):
                _vadd(F, totals.setdefault(key, {}), phi_val, c)
    for key, total in totals.items():
        out.set_value(len(key), key, total)
    return out


def hochschild_prod(A: AInftyStructure, psi: HochschildCochain,
                    phi: HochschildCochain, cap: int | None = None) -> HochschildCochain:
    """Cup-type product on algebra-valued cochains:
    sum (-1)^{(|psi|-1) maltese_l + (|phi|-1) maltese_i}
        mu(..., psi(...), ..., phi(...), ...^i)."""
    F = A.field
    win = min(psi.window(), phi.window())
    if cap is None:
        cap = min(psi.cap, phi.cap)
    if cap >= 10**9:
        raise UsageError("pass an explicit length cap for unbounded cochains")
    out = HochschildCochain(
        A, list(A.degrees), (psi.degree + phi.degree) % 2,
        cap=cap,
        exact_upto=min(win, cap),
    )
    top = out.window()
    for r in range(top + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            total = {}
            for i in range(r + 1):
                for j in range(r - i + 1):
                    for l in range(i + j, r + 1):
                        for m in range(r - l + 1):
                            phi_val = phi.value(j, key[r - i - j : r - i])
                            if not phi_val:
                                continue
                            psi_val = psi.value(m, key[r - l - m : r - l])
                            if not psi_val:
                                continue
                            sgn = _sign(
                                F,
                                (psi.degree + 1) * A.maltese(key[r - l :])
                                + (phi.degree + 1) * A.maltese(key[r - i :]),
                            )
                            for b1, c1 in phi_val.items():
                                for b2, c2 in psi_val.items():
                                    outer = (
                                        key[: r - l - m]
                                        + (b2,)
                                        + key[r - l : r - i - j]
                                        + (b1,)
                                        + key[r - i :]
                                    )
                                    coeff = F.mul(sgn, F.mul(c1, c2))
                                    _vadd(
                                        F, total,
                                        A.op(r - j - m + 2, outer), coeff,
                                    )
            out.set_value(r, key, total)
    return out


def theta_map(A: AInftyStructure, c_coords, cap: int) -> HochschildCochain:
    """theta(c)(a_k, ..., a_1)(x) = (-1)^{|c| (|x|-1)} mu(a_k, ..., a_1, x, c),
    valued in the endomorphism coefficient space (matrix units over A)."""
    F = A.field
    dim = A.dim
    val0 = {i: c for i, c in enumerate(c_coords) if c != F.zero}
    degs = {A.degrees[i] for i in val0}
    if len(degs) > 1:
        raise UsageError("theta needs a homogeneous element")
    c_deg = degs.pop() if degs else 0
    units = [(p, q) for p in range(dim) for q in range(dim)]
    index = {pq: i for i, pq in enumerate(units)}
    unit_degrees = [(A.degrees[p] + A.degrees[q]) % 2 for p, q in units]
    out = HochschildCochain(A, unit_degrees, c_deg, cap=cap)
    for k in range(cap + 1):
        for key in itertools.product(range(dim), repeat=k):
            val = {}
            for x in range(dim):
                sgn = _sign(F, c_deg * (A.degrees[x] + 1))
                for ci, cc in val0.items():
                    res = A.op(k + 2, tuple(key) + (x, ci))
                    for p, c in res.items():
                        _vadd(F, val, {index[(p, x)]: c}, F.mul(sgn, cc))
            out.set_value(k, key, val)
    return out


def pi_map(A: AInftyStructure, phi: HochschildCochain):
    """(-1)^{|phi|} phi^0 evaluated at the unit; end-valued cochains yield an
    element of A, algebra-valued ones a scalar multiple reading."""
    if A.unit is None:
        raise UsageError("structure has no designated unit")
    F = A.field
    dim = A.dim
    val0 = phi.value(0, ())
    out = [F.zero] * dim
    units = [(p, q) for p in range(dim) for q in range(dim)]
    sgn = _sign(F, phi.degree)
    if len(phi.coeff_degrees) == dim * dim:
        for i, c in val0.items():
            p, q = units[i]
            if q == A.unit:
                out[p] = F.add(out[p], F.mul(sgn, c))
    elif len(phi.coeff_degrees) == dim:
        for i, c in val0.items():
            out[i] = F.add(out[i], F.mul(sgn, c))
    else:
        raise UsageError("unrecognized coefficient space")
    return out


# --- premorphism complex (module coherence, verified operationally) ---------------


def premorphism_diff(M: Module, N: Module, psi_components, psi_degree, cap):
    """Differential on A-module premorphisms hom_A(M, N):
    sum mu_N(..., psi(..., m)) + sum (-1)^{|psi|+1} psi(..., mu_M(..., m))
    + sum (-1)^{|psi| + maltese_i + |m| + 1} psi(..., mu(...), ...^i, m)."""
    A = M.algebra
    F = A.field
    even = psi_degree % 2 == 0  # (-1)^{|psi|+1} = -1
    totals = {}
    for j, tensor in psi_components.items():
        if j > cap:
            continue
        room = cap - j
        for (key, m), psi_val in tensor.items():
            # mu_N(more..., psi(key..., m))
            for m_out, c in psi_val.items():
                for more, res in N.by_input.get(m_out, ()):
                    if len(more) > room:
                        break
                    _vadd(F, totals.setdefault((more + key, m), {}), res, c)
            # psi(key..., mu_M(more..., mi)) for every mi sent to m
            for more, mi, c in M.by_output.get(m, ()):
                if len(more) > room:
                    break
                _vadd(F, totals.setdefault((key + more, mi), {}), psi_val,
                      -c if even else c)
            flip = psi_degree + M.degrees[m] + 1
            for longer, c in _expansions(A, key, room, flip):
                _vadd(F, totals.setdefault((longer, m), {}), psi_val, c)
    out = {}
    for (key, mi), total in totals.items():
        if total:
            out.setdefault(len(key), {})[(key, mi)] = total
    return out


def check_module_relations(M: Module, cap: int = 2) -> bool:
    """The premorphism differential squares to zero on elementary premorphisms.
    Each elementary premorphism is differentiated once; d^2 of one is the sum
    of the memoized columns of the terms of its d."""
    A = M.algebra
    F = A.field
    columns = {}

    def column(key, mi, mo, deg):
        memo = (key, mi, mo, deg)
        col = columns.get(memo)
        if col is None:
            col = premorphism_diff(M, M, {len(key): {(key, mi): {mo: 1}}}, deg, cap)
            columns[memo] = col
        return col

    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            malt = A.maltese(key)
            for mi in range(M.dim):
                for mo in range(M.dim):
                    deg = (M.degrees[mo] + M.degrees[mi] + malt) % 2
                    # component rr only reads inputs of index <= rr, so the
                    # whole computed range is exact
                    twice = {}
                    for tensor in column(key, mi, mo, deg).values():
                        for (k2, m2), val in tensor.items():
                            for m_out, c in val.items():
                                col = column(k2, m2, m_out, (deg + 1) % 2)
                                for tensor2 in col.values():
                                    for pair, val2 in tensor2.items():
                                        _vadd(F, twice.setdefault(pair, {}), val2, c)
                    if any(twice.values()):
                        return False
    return True


def check_bimodule_relations(P: BimoduleStructure, cap: int = 3) -> bool:
    """The Hochschild differential squares to zero on elementary cochains;
    linearity makes this a complete check within the window.  Each elementary
    cochain is differentiated once; d^2 of one is the sum of the memoized
    columns of the terms of its d."""
    A = P.algebra
    F = A.field
    columns = {}

    def column(key, p, deg):
        memo = (key, p, deg)
        col = columns.get(memo)
        if col is None:
            phi = HochschildCochain(A, list(P.degrees), deg, cap=cap)
            phi.set_value(len(key), key, {p: 1})
            col = hochschild_diff(A, P, phi)
            columns[memo] = col
        return col

    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            malt = A.maltese(key)
            for p in range(P.dim):
                deg = (P.degrees[p] + malt) % 2
                once = column(key, p, deg)
                top = once.window()
                twice = {}
                for tensor in once.components.values():
                    for key2, val in tensor.items():
                        for p2, c in val.items():
                            col = column(key2, p2, once.degree)
                            for j2, tensor2 in col.components.items():
                                if j2 > top:
                                    continue
                                for key3, val2 in tensor2.items():
                                    _vadd(F, twice.setdefault(key3, {}), val2, c)
                if any(twice.values()):
                    return False
    return True


def load_example(name: str) -> AInftyStructure:
    """Shipped corpus: lambda_x, lambda_xy, triangular, dga3."""
    from importlib import resources

    path = resources.files("floergen.data").joinpath(f"{name}.json")
    with path.open("r", encoding="utf-8") as fh:
        return AInftyStructure.from_json(json.load(fh))
