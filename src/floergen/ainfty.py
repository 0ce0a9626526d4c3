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

Every chain-level map scatters: the residuals, both differentials, the
Hochschild product and theta loop over the nonzero entries of their inputs
(operations, cochain components, premorphism components) and add into every
output they reach, so their cost follows the nonzero terms rather than the
number of output keys.  The "insert mu^j inside" term of the differentials
is `_expansions`, which reads the operations through an index by output;
the product indexes its two factors by output the same way.  Modules and
bimodules are finite sparse tensors, built once from the structure's
operations (so bounded by its arity cap): a module is indexed by module
input and by module output, a bimodule by its slot p, and the action terms
scatter over those entries.

Arithmetic is plain ring arithmetic, and every sign is a parity: (-1)^e c is
c or -c by the parity of e, never a multiplication by a field element.
Coefficients combine with `+`, `*` and unary `-`, reduced `% p` only over
F_p.  The structure constructor keeps its tensors canonical: reduced mod p,
no zero coefficient or empty output, and over Q an integral coefficient as
an int, which compares, hashes and prints as the equal Fraction does, so an
integral structure runs on ints and a non-integral one runs the same code
on Fractions.

Module and bimodule coherence is verified operationally by one routine on a
spanning set of elementary inputs within the window: each is differentiated
once, and d^2 of an input is assembled, by linearity, from the memoized
columns of the terms of its d.  `premorphism_diff` is `hochschild_diff` on
`hom_bimodule(M, M)` after a diagonal sign twist, but stays a function of
its own: the bimodule route is 1.1-1.3x slower on the module checks, and
the benchmark's tracer counts `premorphism_diff` calls by name.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field

from . import linalg
from .algebra import FiniteAlgebra
from .errors import DomainError, UsageError
from .scalar import Field, field_name, parse_field


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
            new = {}
            for key, out in tensor.items():
                if len(key) != k:
                    raise UsageError(f"arity-{k} tensor keyed by {len(key)} inputs")
                if any(i not in basis for i in (*key, *out)):
                    raise UsageError(
                        f"mu^{k}{key} names a basis index outside 0..{self.dim - 1}"
                    )
                want = (sum(self.degrees[i] for i in key) + 2 - k) % 2
                # canonical coefficients: reduced mod p, over Q an integral
                # one as an int (so integral structures run on ints), and no
                # zero coefficient, empty output or empty tensor
                out = {
                    idx: c % p if p else (c.numerator if c.denominator == 1 else c)
                    for idx, c in out.items()
                }
                out = {idx: c for idx, c in out.items() if c}
                for idx in out:
                    if self.degrees[idx] % 2 != want:
                        raise UsageError(
                            f"mu^{k}{key} output {idx} violates degree parity"
                        )
                if out:
                    new[key] = out
            if new:
                ops[k] = new
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

    def signed(j, out):  # (-1)^{|b_j|} out; the constructor reduces and drops 0s
        return {i: -c for i, c in out.items()} if degrees[j] % 2 else out

    ops = {
        1: {(j,): signed(j, out) for j, out in diff.items()},
        2: {(i, j): signed(j, out) for (i, j), out in prod.items()},
    }
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
    """Reverse inputs with the sign (-1)^{triangle_l + l - 1}.  A pair of
    inputs adds an odd term to triangle_l only when both have even degree, so
    triangle_l is C(o, 2) mod 2, o the number of even-degree inputs."""
    ops = {}
    for l, tensor in A.ops.items():
        new = ops[l] = {}
        for key, out in tensor.items():
            o = sum(1 for i in key if A.degrees[i] % 2 == 0)
            odd = (o * (o - 1) // 2 + l - 1) % 2
            new[key[::-1]] = {i: -c for i, c in out.items()} if odd else out
    return AInftyStructure(
        field=A.field, degrees=list(A.degrees), arity_cap=A.arity_cap, ops=ops,
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
        degs = self.degrees
        prods = [
            [
                [F.neg(c) for c in self.products[j][i]]
                if degs[i] * degs[j] % 2 else list(self.products[j][i])
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]
        return GradedAlgebra(F, list(degs), list(self.representatives), prods,
                             self.unit)


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
        for (i, j), res in A.ops.get(2, {}).items():
            _vadd(F, out, res, F.mul(u[i], v[j]))
        return [out.get(i, F.zero) for i in range(A.dim)]

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
            coords = quotient_coords(mu2_elem(u, v))
            row.append([F.neg(c) for c in coords] if degrees[j] % 2 else coords)
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
        mu(..., psi(...), ..., phi(...), ...^i).
    mu(outer) with psi's output in slot s and phi's in slot t > s reaches
    outer[:s] + psi key + outer[s+1:t] + phi key + outer[t+1:]."""
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

    def by_output(h):  # output index -> [(key, coeff)] within the window
        index = {}
        for j, tensor in h.components.items():
            if j <= top:
                for key, val in tensor.items():
                    for b, c in val.items():
                        index.setdefault(b, []).append((key, c))
        return index

    psi_at, phi_at = by_output(psi), by_output(phi)
    odd_psi, odd_phi = (psi.degree + 1) % 2, (phi.degree + 1) % 2
    totals = {}
    for n, tensor in A.ops.items():
        if not 2 <= n <= top + 2:
            continue
        for outer, res in tensor.items():
            for t in range(1, n):
                phis = phi_at.get(outer[t])
                if not phis:
                    continue
                tail = outer[t + 1 :]
                odd_tail = odd_phi * A.maltese(tail)
                for s in range(t):
                    psis = psi_at.get(outer[s])
                    if not psis:
                        continue
                    for key_phi, c_phi in phis:
                        right = outer[s + 1 : t] + key_phi + tail
                        room = top - len(right) - s
                        odd = (odd_psi * A.maltese(right) + odd_tail) % 2
                        for key_psi, c_psi in psis:
                            if len(key_psi) <= room:
                                c = c_psi * c_phi
                                key = outer[:s] + key_psi + right
                                _vadd(F, totals.setdefault(key, {}), res, -c if odd else c)
    for key, total in totals.items():
        out.set_value(len(key), key, total)
    return out


def theta_map(A: AInftyStructure, c_coords, cap: int) -> HochschildCochain:
    """theta(c)(a_k, ..., a_1)(x) = (-1)^{|c| (|x|-1)} mu(a_k, ..., a_1, x, c),
    valued in the endomorphism coefficient space (matrix units over A).
    Scatters from the operations mu(key..., x, b) of arity up to cap + 2
    with b in c's support, into the matrix units p * dim + x."""
    F = A.field
    dim = A.dim
    val0 = {i: c for i, c in enumerate(c_coords) if c != F.zero}
    degs = {A.degrees[i] for i in val0}
    if len(degs) > 1:
        raise UsageError("theta needs a homogeneous element")
    c_deg = degs.pop() if degs else 0
    unit_degrees = [(A.degrees[p] + A.degrees[q]) % 2
                    for p in range(dim) for q in range(dim)]
    out = HochschildCochain(A, unit_degrees, c_deg, cap=cap)
    totals = {}
    for n, tensor in A.ops.items():
        if not 2 <= n <= cap + 2:
            continue
        for outer, res in tensor.items():
            cc = val0.get(outer[-1])
            if cc is None:
                continue
            x = outer[-2]
            _vadd(F, totals.setdefault(outer[:-2], {}),
                  {p * dim + x: c for p, c in res.items()},
                  -cc if c_deg * (A.degrees[x] + 1) % 2 else cc)
    for key, total in totals.items():
        out.set_value(len(key), key, total)
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
    add = F.sub if phi.degree % 2 else F.add  # (-1)^{|phi|}
    if len(phi.coeff_degrees) == dim * dim:
        for i, c in val0.items():
            p, q = divmod(i, dim)
            if q == A.unit:
                out[p] = add(out[p], c)
    elif len(phi.coeff_degrees) == dim:
        for i, c in val0.items():
            out[i] = add(out[i], c)
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


def _keys(A: AInftyStructure, cap):
    """Every written-order key of length <= cap, with its maltese."""
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            yield key, A.maltese(key)


def _squares_to_zero(field, inputs, diff) -> bool:
    """d^2 vanishes on every elementary input (group, i, degree) of `inputs`,
    where diff(group, i, degree) is d of that input by length, as
    {r: {group': {i': c}}}.  Each elementary input is differentiated once;
    d^2 of one is the sum of the memoized columns of the terms of its d."""
    columns = {}
    for group, i, deg in inputs:
        once = columns.get((group, i, deg))
        if once is None:
            once = columns[(group, i, deg)] = diff(group, i, deg)
        back = (deg + 1) % 2
        twice = {}
        for tensor in once.values():
            for group2, val in tensor.items():
                for i2, c in val.items():
                    col = columns.get((group2, i2, back))
                    if col is None:
                        col = columns[(group2, i2, back)] = diff(group2, i2, back)
                    for tensor2 in col.values():
                        for group3, val3 in tensor2.items():
                            _vadd(field, twice.setdefault(group3, {}), val3, c)
        if any(twice.values()):
            return False
    return True


def check_module_relations(M: Module, cap: int = 2) -> bool:
    """The premorphism differential squares to zero on elementary premorphisms
    (key, m_in) -> m_out.  Component rr of d only reads inputs of length <= rr,
    so the whole computed range is exact."""
    A = M.algebra
    degrees = M.degrees

    def diff(group, mo, deg):
        return premorphism_diff(M, M, {len(group[0]): {group: {mo: 1}}}, deg, cap)

    inputs = (((key, mi), mo, (degrees[mo] + degrees[mi] + malt) % 2)
              for key, malt in _keys(A, cap)
              for mi in range(M.dim) for mo in range(M.dim))
    return _squares_to_zero(A.field, inputs, diff)


def check_bimodule_relations(P: BimoduleStructure, cap: int = 3) -> bool:
    """The Hochschild differential squares to zero on elementary cochains
    key -> b_p; linearity makes this a complete check within the window, and
    d at cap reaches only lengths <= cap."""
    A = P.algebra

    def diff(key, p, deg):
        phi = HochschildCochain(A, list(P.degrees), deg, cap=cap)
        phi.set_value(len(key), key, {p: 1})
        return hochschild_diff(A, P, phi).components

    inputs = ((key, p, (P.degrees[p] + malt) % 2)
              for key, malt in _keys(A, cap) for p in range(P.dim))
    return _squares_to_zero(A.field, inputs, diff)


def load_example(name: str) -> AInftyStructure:
    """Shipped corpus: lambda_x, lambda_xy, triangular, dga3."""
    from importlib import resources

    path = resources.files("floergen.data").joinpath(f"{name}.json")
    with path.open("r", encoding="utf-8") as fh:
        return AInftyStructure.from_json(json.load(fh))
