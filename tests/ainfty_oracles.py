"""Test-only oracles for the A-infinity layer: a direct endomorphism-bimodule
construction, the classical diagonal-coefficient Hochschild differential, the
module and bimodule relation checks that apply each differential twice, and
the flattening of cochains to coordinate vectors for rank arguments."""

import itertools

from floergen.ainfty import (
    AInftyStructure,
    BimoduleStructure,
    HochschildCochain,
    Module,
    _sign,
    _vadd,
    hochschild_diff,
    premorphism_diff,
)
from floergen.errors import UsageError


def end_bimodule_tensors(A: AInftyStructure, k, l):
    """Direct endomorphism-bimodule tensors for comparison tests:
    mu^{0|1|0}(z)(x) = (-1)^{|x|+1}(mu^1(z(x)) - z(mu^1(x))),
    mu^{k|1|0}(a..., z)(x) = (-1)^{|x|+1} mu(a..., z(x)),
    mu^{0|1|l}(z, a...)(x) = (-1)^{|x|} z(mu(a..., x))."""
    F = A.field
    dim = A.dim
    units = [(p, q) for p in range(dim) for q in range(dim)]
    index = {pq: i for i, pq in enumerate(units)}
    out = {}
    for left in itertools.product(range(dim), repeat=k):
        for right in itertools.product(range(dim), repeat=l):
            for zi, (p, q) in enumerate(units):
                val = {}
                if k == 0 and l == 0:
                    for pp, c in A.op(1, (p,)).items():
                        _vadd(F, val, {index[(pp, q)]: c}, _sign(F, A.degrees[q] + 1))
                    for qq in range(dim):
                        c = A.op(1, (qq,)).get(q)
                        if c is not None:
                            _vadd(F, val, {index[(p, qq)]: c}, _sign(F, A.degrees[qq]))
                elif l == 0:
                    for pp, c in A.op(k + 1, tuple(left) + (p,)).items():
                        _vadd(F, val, {index[(pp, q)]: c}, _sign(F, A.degrees[q] + 1))
                elif k == 0:
                    for qq in range(dim):
                        c = A.op(l + 1, tuple(right) + (qq,)).get(q)
                        if c is not None:
                            _vadd(F, val, {index[(p, qq)]: c}, _sign(F, A.degrees[qq]))
                if val:
                    out[(left, zi, right)] = val
    return out


def hochschild_diff_diagonal_direct(A: AInftyStructure, phi: HochschildCochain,
                                    cap: int | None = None) -> HochschildCochain:
    """Independent expansion of the classical diagonal-coefficient formula,
    kept as an oracle against the bimodule specialization."""
    F = A.field
    if cap is None:
        cap = phi.cap
    if cap >= 10**9:
        raise UsageError("pass an explicit length cap for unbounded cochains")
    out = HochschildCochain(
        A, list(A.degrees), (phi.degree + 1) % 2, cap=cap,
        exact_upto=min(phi.window(), cap),
    )
    top = min(cap, out.window())
    for r in range(top + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            total = {}
            for i in range(r + 1):
                for j in range(r - i + 1):
                    mid = key[r - i - j : r - i]
                    phi_val = phi.value(j, mid)
                    if not phi_val:
                        continue
                    malt = sum(A.degrees[t] - 1 for t in key[r - i :]) % 2
                    sgn = _sign(F, (phi.degree + 1) * malt)
                    for b, c in phi_val.items():
                        outer = key[: r - i - j] + (b,) + key[r - i :]
                        _vadd(F, total, A.op(r - j + 1, outer), F.mul(sgn, c))
            for i in range(r + 1):
                for j in range(1, r - i + 1):
                    inner = A.op(j, key[r - i - j : r - i])
                    if not inner:
                        continue
                    malt = sum(A.degrees[t] - 1 for t in key[r - i :]) % 2
                    sgn = _sign(F, phi.degree + malt)
                    for b, c in inner.items():
                        new_key = key[: r - i - j] + (b,) + key[r - i :]
                        val = phi.value(r - j + 1, new_key)
                        if val:
                            _vadd(F, total, val, F.mul(sgn, c))
            out.set_value(r, key, total)
    return out


# --- relation checks by squaring (oracles for the memoized checks) -------------


def check_module_relations_direct(M: Module, cap: int = 2) -> bool:
    """Square the premorphism differential on elementary premorphisms."""
    A = M.algebra
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            for mi in range(M.dim):
                for mo in range(M.dim):
                    psi = {r: {(key, mi): {mo: A.field.one}}}
                    deg = (M.degrees[mo] + M.degrees[mi] + sum(
                        A.degrees[t] - 1 for t in key
                    )) % 2
                    once = premorphism_diff(M, M, psi, deg, cap)
                    twice = premorphism_diff(M, M, once, (deg + 1) % 2, cap)
                    # component rr only reads inputs of index <= rr, so the
                    # whole computed range is exact
                    for tensor in twice.values():
                        for val in tensor.values():
                            if val:
                                return False
    return True


def check_bimodule_relations_direct(P: BimoduleStructure, cap: int = 3) -> bool:
    """Square the Hochschild differential on elementary cochains; linearity
    makes this a complete check within the window."""
    A = P.algebra
    F = A.field
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            for p in range(P.dim):
                phi = HochschildCochain(A, list(P.degrees), 0, cap=cap)
                deg = (P.degrees[p] + sum(A.degrees[t] - 1 for t in key)) % 2
                phi.degree = deg
                phi.set_value(r, key, {p: F.one})
                once = hochschild_diff(A, P, phi)
                twice = hochschild_diff(A, P, once)
                if not twice.is_zero_within(twice.window()):
                    return False
    return True


# --- cochain linearization (rank arguments) ------------------------------------


def cochain_coordinates(A: AInftyStructure, coeff_dim: int, cap: int):
    coords = []
    for r in range(cap + 1):
        for key in itertools.product(range(A.dim), repeat=r):
            for p in range(coeff_dim):
                coords.append((r, key, p))
    return coords


def flatten_cochain(phi: HochschildCochain, coords):
    F = phi.algebra.field
    out = []
    for r, key, p in coords:
        out.append(phi.value(r, key).get(p, F.zero))
    return out
