"""Exact scalar arithmetic: the rationals and prime fields F_p.

Field elements are plain Python values: ints in [0, p) over F_p; over Q an
int when integral and a Fraction otherwise.  Every kernel of floergen keeps
one arithmetic rule: accumulate with the native `+`, `-` and `*`, and reduce
once, `% p` over F_p and not at all over Q, where a Fraction with
denominator 1 may result and compares, hashes and prints as the equal int.
A Field supplies what the native operators cannot: `inv` and `div`
(canonical over Q, as are `from_int` and `from_str`), parsing, printing,
and the characteristic that picks the reduction.  The rule's one sparse
kernel, target += c * src on dicts, is `add_scaled`; the Groebner
reduction, the A-infinity sums and the block products of `algebra` run on
it.  A numeral is read only from ASCII characters with no `_`, which
Python's `int` and `Fraction` would also accept.

Univariate polynomials are dense coefficient lists, lowest degree first,
with a nonzero leading coefficient.

Factorization over F_p is squarefree decomposition, then distinct-degree,
then Cantor-Zassenhaus equal-degree splitting.  The equal-degree stage draws
from random.Random(seed) with a fixed default seed so output is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import DomainError, UsageError

DEFAULT_SEED = 2

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2^31 desk scale."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Field operation bundle; subclasses fix the element representation."""

    kind = None
    char = None

    def __eq__(self, other):
        return type(self) is type(other) and self.char == other.char

    def __hash__(self):
        return hash((self.kind, self.char))

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        raise NotImplementedError

    def to_str(self, a) -> str:
        return str(a)

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def sum(self, items):
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc


def canonical(x):
    """The canonical form of a rational x: an int when integral, else the
    Fraction with denominator > 1."""
    return x.numerator if x.denominator == 1 else x


class Rationals(Field):
    kind = "rationals"
    char = 0

    def __repr__(self):
        return "Q"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if b == 0:
            raise DomainError("division by zero")
        return canonical(Fraction(a, b))

    def from_int(self, n):
        return n

    def from_str(self, s: str):
        # Fraction("1e10000000") would expand the exponent into its digits
        if "e" in s.lower() or not is_numeral(s):
            raise UsageError(f"malformed {self!r} literal {s!r}")
        try:
            return canonical(Fraction(s))
        except ZeroDivisionError:
            raise DomainError("division by zero") from None
        except ValueError:
            raise UsageError(f"malformed {self!r} literal {s!r}") from None


class PrimeField(Field):
    kind = "prime_field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        self.p = p
        self.char = p

    def __repr__(self):
        return f"F{self.p}"

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError("division by zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def from_str(self, s: str):
        try:
            parts = [self.from_int(int(x)) for x in s.split("/")] if is_numeral(s) else []
        except ValueError:
            parts = []
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            return self.div(*parts)
        raise UsageError(f"malformed {self!r} literal {s!r}")


QQ = Rationals()


def parse_field(spec: str) -> Field:
    """Parse "Q" or "F<p>" into a Field instance."""
    if type(spec) is not str:
        raise UsageError(f"field spec must be a string, not {spec!r}")
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec.startswith("F") and spec[1:].isdecimal() and is_numeral(spec):
        try:
            return PrimeField(int(spec[1:]))
        except ValueError:  # more digits than int() converts
            pass
    raise UsageError(f"unrecognized field spec {spec!r}; expected Q or F<p>")


def is_numeral(s: str) -> bool:
    """Whether s, surrounding whitespace aside, may hold a numeral: ASCII
    only and no `_`.  `int` and `Fraction` also read other Unicode decimal
    digits and `_` separators, which no input of floergen spells."""
    s = s.strip()
    return s.isascii() and "_" not in s


def json_key_int(value: str, what: str) -> int:
    """An integer key of a JSON object, such as an arity or a basis index:
    an ASCII numeral that `int` reads, surrounding whitespace included."""
    if not is_numeral(value):
        raise UsageError(f"{what} must be an ASCII numeral, not {value!r}")
    return int(value)


def json_int(value, what: str) -> int:
    """An integer field of a JSON input; floats, strings and bools are
    rejected rather than truncated or parsed."""
    if type(value) is not int:
        raise UsageError(f"{what} must be an integer, not {value!r}")
    return value


def json_literal(value, what: str) -> str:
    """A field-element field of a JSON input, as the string `from_str`
    reads: an integer or a string.  A float such as 1.5 and a bool are
    rejected rather than read through `str`, as 3/2 over Q and refused
    over F_p."""
    if type(value) not in (int, str):
        raise UsageError(f"{what} must be an integer or a string, not {value!r}")
    return str(value)


def json_str(value, what: str) -> str:
    """A string field of a JSON input; a number, an array or an object is
    rejected rather than printed through `str`."""
    if type(value) is not str:
        raise UsageError(f"{what} must be a JSON string, not {value!r}")
    return value


def json_list(value, what: str) -> list:
    """A list field of a JSON input; a string is rejected rather than read
    as its characters."""
    if type(value) is not list:
        raise UsageError(f"{what} must be a JSON array, not {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """An object field of a JSON input; an array or a string is rejected
    rather than failing on a missing `.items()`."""
    if type(value) is not dict:
        raise UsageError(f"{what} must be a JSON object, not {value!r}")
    return value


def field_name(field: Field) -> str:
    return "Q" if field.char == 0 else f"F{field.char}"


def add_scaled(field, target, src, coeff, shift=0):
    """target += coeff * src in place on sparse dicts with int keys, each key
    of src moved by `shift`: every sum accumulates natively, is reduced once
    (`% p` over F_p, so coeff may be any int) and is dropped when zero.
    Returns target."""
    p = field.char
    for e, c in src.items():
        e += shift
        acc = target.get(e, 0) + coeff * c
        if p:
            acc %= p
        if acc:
            target[e] = acc
        else:
            target.pop(e, None)
    return target


def square_and_multiply(one, base, e: int, mul):
    """base^e by binary powering from `one`, the product being `mul`: one
    product per set bit of e and one squaring per bit below the top, from the
    lowest bit up.  `one` itself is returned for e = 0."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


def clear_denominators(values):
    """(ints, d) for d the least common denominator of the ints and
    Fractions in values (1 for none): ints[i] = values[i] * d as an int."""
    d = lcm(*[x.denominator for x in values])
    return [x.numerator * (d // x.denominator) for x in values], d


# --- univariate polynomials -------------------------------------------------


class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies t^i.  The
    constructor reduces (`% p` over F_p) and strips zero leading terms, so
    the operations hand it native sums and products."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        p = field.char
        c = [x % p for x in coeffs] if p else list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.field = field
        self.coeffs = c

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __add__(self, other):
        return UniPoly(self.field, [x + y for x, y in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self):
        return UniPoly(self.field, [-x for x in self.coeffs])

    def __sub__(self, other):
        return UniPoly(self.field, [x - y for x, y in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(self.field, out)

    def scale(self, c):
        return UniPoly(self.field, [c * x for x in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, other):
        """(quotient, remainder).  Over F_p each step reduces the terms it
        changes, so a leading term that cancels is the int 0 and is popped."""
        F = self.field
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        p, d = F.char, other.degree
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - d)
        inv_lead = F.inv(other.leading())
        while len(rem) > d:
            k = len(rem) - 1 - d
            c = q[k] = rem[-1] * inv_lead
            tail = [x - c * b for x, b in zip(rem[k:], other.coeffs)]
            rem[k:] = [x % p for x in tail] if p else tail
            while rem and not rem[-1]:
                rem.pop()
        return UniPoly(F, q), UniPoly(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        return UniPoly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """self(x) by Horner's rule, reduced mod p at each step over F_p."""
        p, acc = self.field.char, 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if p:
                acc %= p
        return acc

    def pow_mod(self, e: int, modulus: "UniPoly") -> "UniPoly":
        one = UniPoly(self.field, [1]) % modulus  # 0 for a constant modulus
        return square_and_multiply(one, self % modulus, e, lambda a, b: a * b % modulus)

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        F = self.field
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(F.to_str(c))
            elif i == 1:
                terms.append(f"{F.to_str(c)}*t")
            else:
                terms.append(f"{F.to_str(c)}*t^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"


def _squarefree_decomposition(f: UniPoly):
    """Yield (squarefree factor, multiplicity) over F_p, Yun-style with
    p-th root recursion when the derivative vanishes."""
    F = f.field
    p = F.char
    out = []

    def rec(g, mult):
        if g.degree <= 0:
            return
        gp = g.derivative()
        if gp.is_zero():
            # g is a polynomial in t^p; take the p-th root (coefficients are
            # already p-th powers over the prime field: c^(1/p) = c^(p^(k-1)))
            root = UniPoly(F, [g.coeffs[i] for i in range(0, len(g.coeffs), p)])
            rec(root, mult * p)
            return
        c = g.gcd(gp)
        w = (g // c).monic()
        m = 1
        while w.degree > 0:
            y = w.gcd(c)
            z = (w // y).monic()
            if z.degree > 0:
                out.append((z, mult * m))
            w = y
            c = (c // y).monic()
            m += 1
        if c.degree > 0:
            rec(c, mult)

    rec(f.monic(), 1)
    return out


def _distinct_degree(f: UniPoly):
    """Split a squarefree monic f over F_p into (product of degree-d
    irreducibles, d) pieces."""
    F = f.field
    p = F.char
    pieces = []
    x = UniPoly(F, [0, 1])
    h = x
    g = f
    d = 0
    while g.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(p, g)
        gd = g.gcd(h - x)
        if gd.degree > 0:
            pieces.append((gd, d))
            g = (g // gd).monic()
            h = h % g
    if g.degree > 0:
        pieces.append((g, g.degree))
    return pieces


def _equal_degree_split(f: UniPoly, d: int, rng: random.Random):
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d."""
    F = f.field
    p = F.char
    n = f.degree
    if n == d:
        return [f]
    while True:
        a = UniPoly(F, [rng.randrange(p) for _ in range(n)])
        if a.degree < 1:
            continue
        if p == 2:
            # trace map sum a^(2^i) over the degree-d subfield tower
            t = a
            acc = a
            for _ in range(d - 1):
                t = t.pow_mod(2, f)
                acc = (acc + t) % f
            g = f.gcd(acc)
        else:
            g = f.gcd(a)
            if not 0 < g.degree < n:
                b = a.pow_mod((p**d - 1) // 2, f)
                g = f.gcd(b - UniPoly(F, [1]))
        if 0 < g.degree < n:
            left = _equal_degree_split(g.monic(), d, rng)
            right = _equal_degree_split((f // g).monic(), d, rng)
            return left + right


def univariate_factor(f: UniPoly, seed: int = DEFAULT_SEED):
    """Factor f over F_p into monic irreducibles.

    Returns a list of (factor, multiplicity), sorted by degree then by
    coefficient tuple, so repeated runs agree exactly.  Randomness in the
    equal-degree stage comes from random.Random(seed).
    """
    if not isinstance(f.field, PrimeField):
        raise UsageError("univariate_factor requires a prime field")
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    factors = []
    for sqf, mult in _squarefree_decomposition(f):
        for piece, d in _distinct_degree(sqf):
            for irr in _equal_degree_split(piece.monic(), d, rng):
                factors.append((irr, mult))
    merged = {}
    for g, m in factors:
        key = (g.degree, tuple(g.coeffs))
        if key in merged:
            merged[key] = (g, merged[key][1] + m)
        else:
            merged[key] = (g, m)
    return [merged[k] for k in sorted(merged)]


def _int_divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def strip_roots(chi: UniPoly, roots):
    """chi = prod (t - lam)^m * residual over the given roots: returns the
    factors (t - lam, m) with m > 0, in the order of roots, and residual."""
    F = chi.field
    factors, residual = [], chi
    for lam in roots:
        lin = UniPoly(F, [-lam, 1])
        m = 0
        while not residual.evaluate(lam):
            residual, m = residual // lin, m + 1
        if m:
            factors.append((lin, m))
    return factors, residual


def rational_roots(f: UniPoly):
    """All rational roots of f over Q, with multiplicities.

    Candidates come from the rational root theorem applied to the primitive
    integer form of the squarefree part g // gcd(g, g'), which has the same
    roots as g and a constant term that does not grow with multiplicities;
    g is f with its powers of t stripped.  Each candidate is canonical, so an
    integral root is an int.  Multiplicities are counted on g by
    `strip_roots`.  Returned sorted by root, largest first.
    """
    if f.field != QQ:
        raise UsageError("rational_roots requires rational coefficients")
    if f.is_zero():
        raise DomainError("cannot extract roots of the zero polynomial")
    roots, g = strip_roots(f, [0])
    if g.degree >= 1:
        squarefree = g // g.gcd(g.derivative())
        ints = clear_denominators(squarefree.coeffs)[0]
        content = gcd(*ints)
        a0, an = ints[0] // content, ints[-1] // content
        candidates = set()
        for num in _int_divisors(a0):
            for d in _int_divisors(an):
                candidates.add(canonical(Fraction(num, d)))
                candidates.add(canonical(Fraction(-num, d)))
        roots += strip_roots(g, candidates)[0]
    return sorted(((-lin.coeffs[0], m) for lin, m in roots),
                  key=lambda rm: rm[0], reverse=True)
