"""Exact arithmetic for the three supported coefficient fields.

Scalars are immutable values: ``fractions.Fraction`` for the rationals,
:class:`CyclotomicElement` for Q(zeta_n) in the power basis reduced modulo
the n-th cyclotomic polynomial (integer numerators over one denominator),
and :class:`PrimeFieldElement` for residues modulo a prime.  Every scalar
is kept in a canonical form, so ``a == b`` decides equality of field
elements and hashing is safe.  There is no floating point anywhere in the
package.

The scalar contract is six names.  Each field offers ``zero()``,
``one()``, ``coerce(value)``, ``parse(text)`` and ``inverse(x)``, and a
scalar prints with ``str``.  ``coerce`` turns a Python int, a Fraction over
Q and Q(zeta_n), or a scalar of the field into a scalar of the field;
``parse`` reads the ``str`` of a scalar back to an equal scalar, in one
pass over the text.  ``inverse`` is the only division: it raises
``DivisionByZero`` (a ``ZeroDivisionError``) on zero and ``FieldMismatch``
on anything but a scalar of the field.

A Python number becomes a scalar only through ``coerce`` or ``parse``.
The elements of F_p and Q(zeta_n) keep + - *, negation, ``==``, ``hash``
and ``bool``, and combine only with elements of their own field: a Python
number raises ``TypeError`` and a scalar of another field
``FieldMismatch``.  They have no ``/`` and no ``**``.  They still compare
and hash equal to the int or Fraction they represent.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm


class FieldError(Exception):
    """Base class for errors raised by exact scalar arithmetic."""


class FieldMismatch(FieldError):
    """Two scalars from different fields were combined."""


class DivisionByZero(FieldError, ZeroDivisionError):
    """Division by the zero scalar of an exact field."""


# the least strong pseudoprime to all the prime bases up to 41
PRIME_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# products are integer schoolbook, quadratic in phi(n): about 0.1 s for two
# dense elements of Q(zeta_997); an inverse takes O(log phi(n)) products of
# growing integers (see CyclotomicField.inverse)
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


@functools.lru_cache(maxsize=None)
def _unit_group_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(generator, order) of cyclic factors whose direct product is (Z/n)^x.

    A primitive root modulo each odd prime power p^k exactly dividing n, and
    -1 (k >= 2) and 5 (k >= 3) modulo 2^k, each lifted to 1 modulo n / p^k.
    """
    out = []
    for p in _prime_factors(n):
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        if p == 2:
            gens = [(pk - 1, 2)] if pk >= 4 else []
            if pk >= 8:
                gens.append((5, pk // 4))
        else:
            g = next(g for g in range(2, p)
                     if all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1)))
            if pk > p and pow(g, p - 1, p * p) == 1:
                g += p  # then g + p is a primitive root modulo every power of p
            gens = [(g, pk // p * (p - 1))]
        rest = n // pk
        lift = rest * pow(rest, -1, pk)  # 1 modulo pk, 0 modulo rest
        out += [((g * lift + 1 - lift) % n, order) for g, order in gens]
    return tuple(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    phi = n
    for p in _prime_factors(n):
        phi = phi // p * (p - 1)
    return phi


class PrimeFieldElement:
    """A residue modulo a fixed prime, kept in the canonical range [0, p)."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        self.p = p
        self.value = value % p

    def _operand(self, other):
        """other's residue; None for a non-scalar, FieldMismatch for another field's scalar."""
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatch(f"F_{self.p} vs F_{other.p}")
            return other.value
        return None

    def __add__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value + v)

    def __sub__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value - v)

    def __mul__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value * v)

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.value)

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
    """An element of Q(zeta_n): integer power-basis numerators over one denominator.

    ``coeffs`` holds the numerators of the coefficients of 1, z, ...,
    z^(phi(n) - 1) and ``den`` their positive common denominator, in lowest
    terms: no integer above 1 divides ``den`` and every numerator.  So equal
    elements have equal representations, and +, - and * are integer work.
    """

    __slots__ = ("field", "coeffs", "den")

    def __init__(self, field: "CyclotomicField", coeffs: tuple[int, ...], den: int = 1):
        # callers pass reduced numerators in lowest terms, as CyclotomicField._reduce() builds them
        self.field = field
        self.coeffs = coeffs
        self.den = den

    def _operand(self, other):
        """other itself; None for a non-scalar, FieldMismatch for another field's scalar."""
        if isinstance(other, CyclotomicElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
            return other
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return self.field._lowest([x + y for x, y in zip(self.coeffs, o.coeffs)], a)
        den = lcm(a, b)
        ka, kb = den // a, den // b
        return self.field._lowest([x * ka + y * kb for x, y in zip(self.coeffs, o.coeffs)], den)

    def __sub__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else self + -o

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        b = o.coeffs
        out = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return self.field._reduce(out, self.den * o.den)

    def _conjugate(self, e: int) -> "CyclotomicElement":
        """The image under the automorphism z -> z^e (e prime to n)."""
        nums = [0] * self.field.n
        for i, c in enumerate(self.coeffs):
            nums[i * e % self.field.n] += c
        return self.field._reduce(nums, self.den)

    def _orbit_product(self, g: int, count: int) -> "CyclotomicElement":
        """The product of the conjugates under z -> z^(g^k) for k = 1..count, by doubling."""
        n = self.field.n
        acc, length = self._conjugate(g), 1  # acc: the product for k = 1..length
        for bit in bin(count)[3:]:
            acc = acc * acc._conjugate(pow(g, length, n))
            length *= 2
            if bit == "1":
                length += 1
                acc = acc * self._conjugate(pow(g, length, n))
        return acc

    def __neg__(self):
        return CyclotomicElement(self.field, tuple(-x for x in self.coeffs), self.den)

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return (
                self.coeffs == other.coeffs
                and self.den == other.den
                and (self.field is other.field or self.field == other.field)
            )
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_rational(other)
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like the int or Fraction it equals
        if any(self.coeffs[1:]):
            return hash((self.coeffs, self.den))
        if self.den == 1:
            return hash(self.coeffs[0])
        return hash(Fraction(self.coeffs[0], self.den))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        out = ""
        for i in range(self.field.degree - 1, -1, -1):
            if not self.coeffs[i]:
                continue
            c = Fraction(self.coeffs[i], self.den)
            body = str(abs(c)) if i == 0 else "z" if i == 1 else f"z^{i}"
            if i and abs(c) != 1:
                body = f"{abs(c)}*{body}"
            # a positive first term is unsigned; every later term is signed
            out += ("-" if c < 0 else "+" if out else "") + body
        return out or "0"

    def __repr__(self):
        return f"Cyc{self.field.n}({self})"


# whitespace may stand at the ends of a scalar and around its + and - signs only
_SIGNS = re.compile(r"\s*([+-])\s*")


def _signed_terms(text: str) -> list[tuple[str, str]]:
    """The (sign, term) pairs of a scalar; an empty term is a ValueError."""
    pieces = _SIGNS.split(text.strip())
    # term, sign, term, ...: a leading sign leaves the first term empty
    head = pieces.pop(0)
    terms = [("+", head)] if head or not pieces else []
    terms += zip(pieces[::2], pieces[1::2])
    if not all(term for _, term in terms):
        raise ValueError(f"cannot parse {text!r}: a sign needs a term on its right")
    return terms


# ---------------------------------------------------------------------------
# Field descriptors.  A field knows how to build and parse scalars; the
# scalars themselves carry the arithmetic and print themselves.


class RationalField:
    kind = "rationals"
    characteristic = 0

    # the whole scalar: whitespace only at the ends and around the sign
    _RE = re.compile(r"\s*([+-]?)\s*([0-9]+)(?:/([0-9]+))?\s*")

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise FieldMismatch(f"{value!r} is not a rational scalar")

    def inverse(self, x: Fraction) -> Fraction:
        """1/x as a Fraction; like coerce, it also takes an int."""
        if not isinstance(x, (int, Fraction)):
            raise FieldMismatch(f"{x!r} is not a rational scalar")
        if not x:
            raise DivisionByZero("division by zero in QQ")
        return Fraction(x.denominator, x.numerator)

    def parse(self, text: str) -> Fraction:
        """One match reads the scalar; only a rejected text is split again, for its message."""
        m = self._RE.fullmatch(text)
        if m is None:
            _signed_terms(text)  # a sign without a term has its own message
            raise ValueError(f"cannot parse {text!r} as a rational")
        sign, num, den = m.groups()
        numerator = -int(num) if sign == "-" else int(num)
        if den is None:
            return Fraction(numerator)
        denominator = int(den)
        if not denominator:
            raise ValueError(f"zero denominator in {(sign or '+') + num + '/' + den!r}")
        return Fraction(numerator, denominator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "QQ"


class CyclotomicField:
    kind = "cyclotomic"
    characteristic = 0

    # a term after its sign; a '*' only joins a coefficient to z
    _TERM = re.compile(r"(?=[0-9z])(?:([0-9]+)(?:/([0-9]+))?(?:\*(?=z))?)?(z(?:\^([0-9]+))?)?")
    # a term with its sign (optional on the first), whitespace only around the
    # sign; the last group matches whitespace up to the end of the text
    _SIGNED_TERM = re.compile(r"\s*([+-]?)\s*" + _TERM.pattern + r"(\s*\Z)?")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("cyclotomic order must be at least 2")
        if n > MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"cyclotomic order must be at most {MAX_CYCLOTOMIC_ORDER}, got {n}")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1
        # Phi_n is monic, so dividing by it needs only its lower nonzero coefficients
        self._tail = tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)
        self._pad = (0,) * (self.degree - 1)
        # elements are immutable, so zero and one are built once
        self._zero = self.from_rational(0)
        self._one = self.from_rational(1)

    def _reduce(self, nums: list[int], den: int) -> CyclotomicElement:
        """The element sum(nums[k] z^k) / den; reduces nums in place.

        Exponents are folded with z^n = 1 first, so a product of two reduced
        elements needs at most n - phi(n) steps of the division by Phi_n.
        """
        n, deg = self.n, self.degree
        for k in range(n, len(nums)):
            nums[k % n] += nums[k]
        del nums[n:]
        for i in range(len(nums) - 1, deg - 1, -1):
            c = nums[i]
            if c:
                shift = i - deg
                for j, m in self._tail:
                    nums[shift + j] -= c * m
        del nums[deg:]
        nums += [0] * (deg - len(nums))
        return self._lowest(nums, den)

    def _lowest(self, nums: list[int], den: int) -> CyclotomicElement:
        """The element with reduced numerators nums over den, put in lowest terms."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        return CyclotomicElement(self, tuple(nums), den)

    def zero(self) -> CyclotomicElement:
        return self._zero

    def one(self) -> CyclotomicElement:
        return self._one

    def from_rational(self, q) -> CyclotomicElement:
        """An int or a Fraction as an element (both carry numerator and denominator)."""
        return CyclotomicElement(self, (q.numerator,) + self._pad, q.denominator)

    def zeta(self) -> CyclotomicElement:
        """The canonical primitive n-th root of unity."""
        return self._reduce([0, 1], 1)

    def coerce(self, value) -> CyclotomicElement:
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        if isinstance(value, CyclotomicElement):
            return self._zero._operand(value)
        raise FieldMismatch(f"{value!r} is not a {self!r} scalar")

    def inverse(self, x: CyclotomicElement) -> CyclotomicElement:
        """R_1 ... R_r / b_r, a product of Galois conjugates over the norm.

        For (Z/n)^x = <g_1> x ... x <g_r>, b_0 = x, R_i is the product of
        the conjugates of b_(i-1) under g_i, ..., g_i^(order - 1), and
        b_i = b_(i-1) R_i; b_r is the norm, a nonzero rational.
        """
        if self._zero._operand(x) is None:
            raise FieldMismatch(f"{x!r} is not a {self!r} scalar")
        if not x:
            raise DivisionByZero(f"division by zero in {self!r}")
        out, b = self._one, x
        for g, order in _unit_group_factors(self.n):
            rest = b._orbit_product(g, order - 1)
            out = out * rest
            b = b * rest
        return out * self.from_rational(Fraction(b.den, b.coeffs[0]))

    def parse(self, text: str) -> CyclotomicElement:
        """One scan of the signed terms, summed over one common denominator."""
        terms, pos = [], 0
        try:
            while True:
                m = self._SIGNED_TERM.match(text, pos)
                if m is None or (pos and not m.group(1)):
                    raise ValueError
                sign, num, d, z, exp, end = m.groups()
                coef = int(num) if num else 1
                d = int(d) if d else 1
                if not d:
                    raise ValueError
                # z^n = 1, so only the exponent mod n matters
                power = (int(exp) if exp else 1) % self.n if z else 0
                terms.append((power, -coef if sign == "-" else coef, d))
                if end is not None:
                    break
                pos = m.end()
        except ValueError:
            self._reject(text)
        den = lcm(*(d for _, _, d in terms))
        nums = [0] * (1 + max(power for power, _, _ in terms))
        for power, coef, d in terms:
            nums[power] += coef * (den // d)
        return self._reduce(nums, den)

    def _reject(self, text: str):
        """Raise parse's ValueError for a text: a sign without a term, else the first bad term."""
        for _, term in _signed_terms(text):
            m = self._TERM.fullmatch(term)
            if m is None:
                raise ValueError(f"cannot parse term {term!r} in {text!r}")
            num, den, _, exp = m.groups()
            if num is not None:
                int(num)  # a number past the int digit limit raises here, in text order
            if den is not None and not int(den):
                raise ValueError(f"zero denominator in {num + '/' + den!r}")
            if exp is not None:
                int(exp)
        raise AssertionError(f"parse rejected {text!r}, which has no fault")

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"QQ(zeta_{self.n})"


class PrimeField:
    kind = "prime"

    # the whole scalar: whitespace only at the ends and around the sign
    _RE = re.compile(r"\s*([+-]?)\s*([0-9]+)\s*")

    def __init__(self, p: int):
        if p >= PRIME_LIMIT or not is_prime(p):
            raise ValueError(f"{p} is not a prime below {PRIME_LIMIT}")
        self.p = p
        self.characteristic = p

    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 0)

    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 1)

    def coerce(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            if value.p != self.p:
                raise FieldMismatch(f"F_{value.p} vs F_{self.p}")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(self.p, value)
        raise FieldMismatch(f"{value!r} is not an F_{self.p} scalar")

    def inverse(self, x: PrimeFieldElement) -> PrimeFieldElement:
        if not isinstance(x, PrimeFieldElement) or x.p != self.p:
            raise FieldMismatch(f"{x!r} is not an F_{self.p} scalar")
        if not x.value:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.p, pow(x.value, -1, self.p))

    def parse(self, text: str) -> PrimeFieldElement:
        """One match reads the scalar; only a rejected text is split again, for its message."""
        m = self._RE.fullmatch(text)
        if m is None:
            _signed_terms(text)  # a sign without a term has its own message
            raise ValueError(f"cannot parse {text!r} as an integer mod {self.p}")
        sign, digits = m.groups()
        return PrimeFieldElement(self.p, -int(digits) if sign == "-" else int(digits))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()
