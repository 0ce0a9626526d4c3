"""Sparse multivariate Laurent polynomials with integer exponent vectors.

A LaurentRing is (variable names, field); a LaurentPoly stores a map from
exponent tuples to nonzero coefficients.  Terms are kept in a plain dict and
rendered in lexicographic exponent order, so printing and JSON output are
deterministic.

Coefficients follow the arithmetic rule of `scalar`: `LaurentRing.from_terms`
sums terms with like exponents natively, reduces each sum once (`% p` over
F_p) and drops zeros, as `monomial` does for its one term; products, scalar
multiples and log-derivatives are one `from_terms` call each.

JSON form:
    {"variables": ["x", "y"], "field": "F7",
     "terms": [{"coeff": "3", "exps": [1, -2]}, ...]}
with coefficients as decimal strings ("a/b" allowed over Q).
"""

from __future__ import annotations

import operator

from .errors import DomainError, UsageError
from .scalar import (Field, field_name, json_int, json_list, json_literal, json_str,
                     parse_field, square_and_multiply)

# exponents stay far from any machine bound at desk scale, but guard anyway
_EXP_BOUND = 10**9


class LaurentRing:
    def __init__(self, variables, field: Field):
        self.variables = tuple(variables)
        self.field = field
        if len(set(self.variables)) != len(self.variables):
            raise UsageError("duplicate variable names")

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and self.variables == other.variables
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{field_name(self.field)}[{', '.join(v + '^±1' for v in self.variables)}]"

    def zero(self):
        return LaurentPoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.monomial((0,) * self.nvars, c)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise UsageError("exponent vector length mismatch")
        p = self.field.char
        c = coeff % p if p else coeff
        return LaurentPoly(self, {exps: c} if c else {})

    def variable(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return self.monomial(e)

    def from_terms(self, pairs):
        out, p = {}, self.field.char
        for exps, c in pairs:
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise UsageError("exponent vector length mismatch")
            if any(abs(e) > _EXP_BOUND for e in exps):
                raise UsageError("exponent overflow")
            acc = out.get(exps, 0) + c
            if p:
                acc %= p
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return LaurentPoly(self, out)


class LaurentPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.ring != other.ring:
            raise UsageError("operands live in different Laurent rings")

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        self._check(other)
        items = list(self.terms.items()) + list(other.terms.items())
        return self.ring.from_terms(items)

    def __neg__(self):
        p = self.ring.field.char
        return LaurentPoly(self.ring, {e: -c % p if p else -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self.ring.from_terms(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())

    def scalar_mul(self, c):
        return self.ring.from_terms((e, c * x) for e, x in self.terms.items())

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("use explicit inverse monomials for negative powers")
        return square_and_multiply(self.ring.one(), self, n, operator.mul)

    def log_derivative(self, i: int) -> "LaurentPoly":
        """z_i * d/dz_i: each term c*z^e picks up the factor e_i."""
        if not 0 <= i < self.ring.nvars:
            raise UsageError("variable index out of range")
        return self.ring.from_terms((e, e[i] * c) for e, c in self.terms.items())

    def evaluate(self, point):
        """Exact substitution; every coordinate must be invertible.  A negative
        exponent powers the inverse, as `int ** -k` would be a float over Q."""
        F = self.ring.field
        if len(point) != self.ring.nvars:
            raise UsageError("point length mismatch")
        if not all(point):
            raise DomainError("Laurent evaluation needs nonzero coordinates")
        mod = F.char or None  # pow(x, k, None) is x ** k
        inverses = [F.inv(x) for x in point]
        total = 0
        for e, c in self.terms.items():
            for x, inv, k in zip(point, inverses, e):
                if k:
                    c *= pow(x, k, mod) if k > 0 else pow(inv, -k, mod)
            total += c
        return total % mod if mod else total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        F = self.ring.field
        names = self.ring.variables
        chunks = []
        for e, c in self.sorted_terms():
            cs = F.to_str(c)
            if any(e):
                mono = monomial_str(names, e)
                chunks.append(mono if cs == "1" else f"{cs}*{mono}")
            else:
                chunks.append(cs)
        return " + ".join(chunks)

    def to_json(self) -> dict:
        return {
            "variables": list(self.ring.variables),
            "field": field_name(self.ring.field),
            "terms": [
                {"coeff": self.ring.field.to_str(c), "exps": list(e)}
                for e, c in self.sorted_terms()
            ],
        }


def monomial_str(names, exps) -> str:
    """`name^x` for each nonzero exponent x, `name` alone for x = 1, joined
    by `*`; "1" for the empty monomial."""
    return "*".join(n if x == 1 else f"{n}^{x}" for n, x in zip(names, exps) if x) or "1"


def laurent_from_json(data: dict, field: Field | None = None) -> LaurentPoly:
    try:
        variables = [json_str(v, "variables entry")
                     for v in json_list(data["variables"], "variables")]
        fld = field if field is not None else parse_field(data["field"])
        ring = LaurentRing(variables, fld)
        pairs = [
            (tuple(json_int(e, "exponent") for e in t["exps"]),
             fld.from_str(json_literal(t["coeff"], "coeff")))
            for t in data["terms"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed Laurent polynomial JSON: {exc}") from exc
    return ring.from_terms(pairs)
