"""Exact arithmetic for the three supported coefficient fields.

Scalars are immutable values: ``fractions.Fraction`` for the rationals,
:class:`CyclotomicElement` for Q(zeta_n) in the power basis reduced modulo
the n-th cyclotomic polynomial, and :class:`PrimeFieldElement` for residues
modulo a prime.  Every scalar is kept in a canonical form, so ``a == b``
decides equality of field elements and hashing is safe.  There is no
floating point anywhere in the package.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction


class FieldError(Exception):
    """Base class for errors raised by exact scalar arithmetic."""


class FieldMismatch(FieldError):
    """Two scalars from different fields were combined."""


class DivisionByZero(FieldError, ZeroDivisionError):
    """Division by the zero scalar of an exact field."""


class WrongFieldKind(FieldError):
    """The requested operation needs a different kind of field."""


# the least strong pseudoprime to all the prime bases up to 41
PRIME_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# power-basis arithmetic is quadratic in phi(n): one product of two dense
# elements of Q(zeta_997) takes about 8 s
MAX_CYCLOTOMIC_ORDER = 1000


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41: exact below PRIME_LIMIT."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
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


# ---------------------------------------------------------------------------
# Integer polynomials (ascending coefficient lists) for cyclotomic moduli.


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    The product of (x^d - 1)^mu(n/d) over the divisors d of n, taken in
    Z[[x]] modulo x^(phi(n) + 1), where x^d - 1 is a unit.  Multiplying by
    x^d - 1 and dividing by it are the same one-pass recurrence, run
    downwards or upwards, so the cost is phi(n) per squarefree divisor.
    """
    size = euler_phi(n) + 1
    poly = [1] + [0] * (size - 1)
    moebius = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of n
    for p in _prime_factors(n):
        moebius += [(e * p, -mu) for e, mu in moebius]
    for e, mu in moebius:
        d = n // e
        for i in (range(size - 1, -1, -1) if mu == 1 else range(size)):
            poly[i] = (poly[i - d] if i >= d else 0) - poly[i]
    return tuple(poly)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    phi = n
    for p in _prime_factors(n):
        phi = phi // p * (p - 1)
    return phi


# ---------------------------------------------------------------------------
# Rational polynomials (ascending Fraction lists) for Q(zeta_n) arithmetic.


def _ptrim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _ptrim(out)


def _pdivmod(a: list[Fraction], b: list[Fraction]):
    """Euclidean division of Fraction polynomials, b nonzero."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db] if i + db < len(rem) else Fraction(0)
        if c == 0:
            continue
        f = c / lead
        quot[i] = f
        for j, y in enumerate(b):
            rem[i + j] -= f * y
    return _ptrim(quot), _ptrim(rem)


class PrimeFieldElement:
    """A residue modulo a fixed prime, kept in the canonical range [0, p)."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        self.p = p
        self.value = value % p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatch(f"F_{self.p} vs F_{other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.p, self.value * pow(v, -1, self.p))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, v) / self

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.value)

    def __pow__(self, k: int):
        if self.value == 0 and k < 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.p, pow(self.value, k, self.p))

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"F{self.p}({self.value})"


class CyclotomicElement:
    """An element of Q(zeta_n) in the power basis, reduced modulo Phi_n."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CyclotomicField", coeffs: tuple[Fraction, ...]):
        # callers go through CyclotomicField.element(), which reduces
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.element(_pmul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def _inverse(self) -> "CyclotomicElement":
        if not self:
            raise DivisionByZero(f"division by zero in {self.field!r}")
        # extended Euclid against the (irreducible) modulus: track r = s*self
        mod = [Fraction(c) for c in self.field.modulus]
        r0, r1 = mod, _ptrim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        if len(r0) != 1:
            raise ArithmeticError("modulus not coprime to element")
        inv = [c / r0[0] for c in s0]
        return self.field.element(inv)

    def __neg__(self):
        return CyclotomicElement(self.field, tuple(-a for a in self.coeffs))

    def __pow__(self, k: int):
        if k < 0:
            return self._inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return not any(self.coeffs[1:]) and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if any(self.coeffs[1:]):
            return hash(self.coeffs)
        return hash(self.coeffs[0])

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        return self.field.format(self)

    def __repr__(self):
        return f"Cyc{self.field.n}({self.field.format(self)})"


def _fraction(text: str) -> Fraction:
    """A Fraction from a string the caller has checked; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# Field descriptors.  A field knows how to build, parse and format scalars;
# the scalars themselves carry the arithmetic.


class RationalField:
    kind = "rationals"
    characteristic = 0

    _RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def coerce(self, value) -> Fraction:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise FieldMismatch(f"{value!r} is not a rational scalar")

    def parse(self, text: str) -> Fraction:
        text = text.strip()
        if not self._RE.fullmatch(text):
            raise ValueError(f"cannot parse {text!r} as a rational")
        return _fraction(text)

    def format(self, value: Fraction) -> str:
        return str(value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "QQ"


class CyclotomicField:
    kind = "cyclotomic"
    characteristic = 0

    # a '*' only joins a coefficient to z
    _TERM = re.compile(r"([+-]?)(?:([0-9]+(?:/[0-9]+)?)(?:\*(?=z))?)?(z(?:\^([0-9]+))?)?")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("cyclotomic order must be at least 2")
        if n > MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"cyclotomic order must be at most {MAX_CYCLOTOMIC_ORDER}, got {n}")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        # elements are immutable, so zero and one are built once
        self._zero = self.element([])
        self._one = self.element([1])

    def element(self, coeffs) -> CyclotomicElement:
        """Build an element from arbitrary power-basis coefficients, reducing."""
        c = [Fraction(x) for x in coeffs]
        deg = self.degree
        for i in range(len(c) - 1, deg - 1, -1):
            f = c[i]
            if f == 0:
                continue
            shift = i - deg
            for j in range(deg + 1):
                c[shift + j] -= f * self.modulus[j]
        c = c[:deg]
        c += [Fraction(0)] * (deg - len(c))
        return CyclotomicElement(self, tuple(c))

    def zero(self) -> CyclotomicElement:
        return self._zero

    def one(self) -> CyclotomicElement:
        return self._one

    def from_int(self, k: int) -> CyclotomicElement:
        return self.element([k])

    def from_rational(self, q: Fraction) -> CyclotomicElement:
        return self.element([q])

    def zeta(self) -> CyclotomicElement:
        """The canonical primitive n-th root of unity."""
        return self.element([0, 1])

    def coerce(self, value) -> CyclotomicElement:
        if isinstance(value, CyclotomicElement):
            if value.field != self:
                raise FieldMismatch(f"{value.field!r} vs {self!r}")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(Fraction(value))
        raise FieldMismatch(f"{value!r} is not a {self!r} scalar")

    def parse(self, text: str) -> CyclotomicElement:
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        parts = re.findall(r"[+-]?[^+-]+", s)
        if "".join(parts) != s:
            raise ValueError(f"cannot parse {text!r} as a cyclotomic scalar")
        powers: dict[int, Fraction] = {}
        for part in parts:
            m = self._TERM.fullmatch(part)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise ValueError(f"cannot parse term {part!r} in {text!r}")
            coef = _fraction(m.group(2)) if m.group(2) is not None else Fraction(1)
            if m.group(1) == "-":
                coef = -coef
            if m.group(3) is None:
                power = 0
            else:
                # z^n = 1, so only the exponent mod n matters
                power = (int(m.group(4)) if m.group(4) is not None else 1) % self.n
            powers[power] = powers.get(power, Fraction(0)) + coef
        coeffs = [Fraction(0)] * (max(powers) + 1)
        for k, v in powers.items():
            coeffs[k] = v
        return self.element(coeffs)

    def format(self, value: CyclotomicElement) -> str:
        pieces = []
        for i in range(self.degree - 1, -1, -1):
            c = value.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                zpart = "z" if i == 1 else f"z^{i}"
                body = zpart if abs(c) == 1 else f"{abs(c)}*{zpart}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        if not pieces:
            return "0"
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"QQ(zeta_{self.n})"


class PrimeField:
    kind = "prime"

    _RE = re.compile(r"[+-]?[0-9]+")

    def __init__(self, p: int):
        if p >= PRIME_LIMIT or not is_prime(p):
            raise ValueError(f"{p} is not a prime below {PRIME_LIMIT}")
        self.p = p
        self.characteristic = p

    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 0)

    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 1)

    def from_int(self, k: int) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, k)

    def coerce(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            if value.p != self.p:
                raise FieldMismatch(f"F_{value.p} vs F_{self.p}")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(self.p, value)
        raise FieldMismatch(f"{value!r} is not an F_{self.p} scalar")

    def parse(self, text: str) -> PrimeFieldElement:
        text = text.strip()
        if not self._RE.fullmatch(text):
            raise ValueError(f"cannot parse {text!r} as an integer mod {self.p}")
        return PrimeFieldElement(self.p, int(text))

    def format(self, value: PrimeFieldElement) -> str:
        return str(value.value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def primitive_root(field) -> CyclotomicElement:
    """The canonical primitive root of unity of a cyclotomic field."""
    if not isinstance(field, CyclotomicField):
        raise WrongFieldKind("primitive roots of unity require a cyclotomic field")
    return field.zeta()
