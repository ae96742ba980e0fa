import math
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from invcat.fields import (
    CyclotomicElement,
    CyclotomicField,
    DivisionByZero,
    FieldMismatch,
    PRIME_LIMIT,
    PrimeField,
    QQ,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
)

import oracle


C3 = CyclotomicField(3)
C4 = CyclotomicField(4)
F2 = PrimeField(2)
F5 = PrimeField(5)

ALL_FIELDS = [QQ, C3, C4, CyclotomicField(6), F2, PrimeField(3), F5]


def rand_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    if isinstance(field, CyclotomicField):
        return oracle.cyclotomic(field, [rng.randint(-3, 3) for _ in range(field.degree)])
    return field.coerce(rng.randrange(field.p))


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert QQ.parse("2/3") * QQ.parse("3/2") == 1


def test_cyclotomic_root_relations():
    z = C3.zeta()
    assert z * (z * z) == 1
    assert z * z == -C3.one() - z
    assert CyclotomicField(2).zeta() == -1
    assert C4.zeta() * C4.zeta() == -1


def test_prime_field_division():
    assert F5.coerce(1) * F5.inverse(F5.coerce(2)) == 3
    assert F5.coerce(2) * F5.coerce(3) == 1
    with pytest.raises(DivisionByZero):
        F5.inverse(F5.zero())
    with pytest.raises(ZeroDivisionError):
        # DivisionByZero doubles as the stdlib exception
        F2.inverse(F2.zero())


def test_cyclotomic_polynomial_table():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_zeta_is_primitive(n):
    field = CyclotomicField(n)
    z = field.zeta()
    assert oracle.power(z, n) == 1
    for m in range(1, n):
        assert oracle.power(z, m) != 1
    # the defining relation holds after reduction
    acc = field.zero()
    for c in reversed(field.modulus):
        acc = acc * z + field.coerce(c)
    assert acc == 0


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_axioms_randomized(field):
    rng = random.Random(1234)
    zero, one = field.zero(), field.one()
    for _ in range(60):
        a, b, c = (rand_scalar(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        if a != zero:
            assert a * field.inverse(a) == one
        assert a * one == a and a + zero == a


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_canonical_form_decides_equality(field):
    rng = random.Random(99)
    for _ in range(40):
        a, b = rand_scalar(field, rng), rand_scalar(field, rng)
        assert (a - b == field.zero()) == (a == b)
        if a == b:
            assert hash(a) == hash(b)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        C3.zeta() + C4.zeta()
    with pytest.raises(FieldMismatch):
        F2.one() + PrimeField(3).one()
    with pytest.raises(FieldMismatch):
        QQ.coerce(C3.zeta())


@pytest.mark.parametrize("x", [F5.coerce(3), C3.zeta() + C3.coerce(Fraction(1, 2))], ids=repr)
def test_python_numbers_enter_only_through_coerce(x):
    # no implicit int or Fraction arithmetic: an int leaking out of an
    # int-scalar kernel must fail, not be reduced mod p in silence
    for number in (1, 2, Fraction(1, 2), True):
        for op in (lambda: x + number, lambda: number + x, lambda: x - number,
                   lambda: number - x, lambda: x * number, lambda: number * x,
                   lambda: x / number, lambda: number / x):
            with pytest.raises(TypeError):
                op()
    field = C3 if isinstance(x, CyclotomicElement) else F5
    # equality and hashing against ints and Fractions are unchanged
    assert field.coerce(1) == 1 and 1 == field.coerce(1) and field.coerce(1) != 2
    assert hash(field.coerce(3)) == hash(3) and {0: "zero"}[field.zero()] == "zero"
    if field is C3:
        half = field.coerce(Fraction(1, 2))
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert x - field.zeta() == Fraction(1, 2) and x != Fraction(1, 2)
    else:
        assert x == 3 and x == field.coerce(8) and hash(x) == hash(3)


@pytest.mark.parametrize("x", [F5.coerce(3), C3.zeta() + C3.one()], ids=repr)
def test_scalars_have_no_division_or_power(x):
    # a field inverts only through its inverse method
    for op in (lambda: x / x, lambda: x ** 2, lambda: x ** -1, lambda: pow(x, 2)):
        with pytest.raises(TypeError):
            op()


# the largest prime that a prime field admits
NEAR_LIMIT = next(p for p in range(PRIME_LIMIT - 2, 0, -2) if is_prime(p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.fractions(), st.integers()).filter(bool))
def test_rational_inverse_matches_fraction_division(q):
    inverse = QQ.inverse(q)
    assert type(inverse) is Fraction and inverse == Fraction(1) / q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([F2, PrimeField(3), F5, PrimeField(NEAR_LIMIT)]), st.integers())
@example(PrimeField(NEAR_LIMIT), NEAR_LIMIT - 1)
def test_prime_inverse_matches_modular_pow(field, v):
    x = field.coerce(v)
    if v % field.p == 0:
        with pytest.raises(DivisionByZero):
            field.inverse(x)
        return
    inverse = field.inverse(x)
    assert type(inverse) is type(x) and inverse.value == pow(v, -1, field.p)


@pytest.mark.parametrize("field", ALL_FIELDS + [CyclotomicField(2)], ids=repr)
def test_inverse_of_zero_raises_division_by_zero(field):
    with pytest.raises(DivisionByZero) as caught:
        field.inverse(field.zero())
    assert isinstance(caught.value, ZeroDivisionError)


def test_inverse_takes_only_scalars_of_its_field():
    for field, x in [
        (QQ, F5.one()), (QQ, C3.one()), (QQ, 0.5), (QQ, "2"),
        (F5, F2.one()), (F5, PrimeField(7).one()), (F5, C3.one()), (F5, 3), (F5, Fraction(1, 2)),
        (C3, C4.zeta()), (C3, F5.one()), (C3, 2), (C3, Fraction(1, 2)),
    ]:
        with pytest.raises(FieldMismatch):
            field.inverse(x)
    # an equal field built apart is the same field
    assert C3.inverse(CyclotomicField(3).zeta()) == C3.zeta() * C3.zeta()
    assert F5.inverse(PrimeField(5).coerce(2)) == 3


def test_cyclotomic_coerce_takes_only_exact_values():
    # Fraction(0.5) once read a float as 1/2 and Fraction("1/3") a string
    for value in (0.5, "1/3", F5.one(), C4.zeta()):
        with pytest.raises(FieldMismatch):
            C3.coerce(value)
    assert C3.coerce(Fraction(1, 2)) + C3.zeta() == C3.parse("z+1/2")


def test_rational_coercion_into_cyclotomic():
    z = C3.zeta()
    half = C3.coerce(Fraction(1, 2))
    assert half + z == z + half and (half + z) - z == Fraction(1, 2)
    assert C3.coerce(2) * z - z == z


@pytest.mark.parametrize(
    "field,text",
    [
        (QQ, "2/3"),
        (QQ, "-7"),
        (C3, "z"),
        (C3, "-z+1"),
        (C3, "1/2*z-2/3"),
        (C4, "z^3+z"),
        (F5, "4"),
        (F5, "-1"),
    ],
)
def test_parse_format_round_trip(field, text):
    value = field.parse(text)
    assert field.parse(str(value)) == value


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_format_round_trips_random_values(field):
    rng = random.Random(7)
    for _ in range(25):
        a = rand_scalar(field, rng)
        assert field.parse(str(a)) == a
    # coerce and parse agree on ints, negative ones reduced mod p included
    for k in range(-7, 8):
        assert field.coerce(k) == field.parse(str(k))


def test_parse_rejects_garbage():
    for field, text in [
        (QQ, "1.5"), (QQ, "z"), (C3, "z^"), (C3, ""), (F5, "2/3"),
        # a zero denominator, a dangling '*' and non-ASCII digits
        (QQ, "1/0"), (C3, "z+1/0"), (C3, "0/0*z"), (C3, "3*"), (C3, "z-3*"),
        (QQ, "\u0663"), (F5, "\u0663"), (C3, "\u0663"), (C3, "z^\u0663"),
        # whitespace only at the ends and around signs: the cyclotomic parser
        # deleted every space, reading "1 2" as 12 and "z ^ 1 0" as z^10
        (C3, "1 2"), (C3, "z ^ 1 0"), (C3, "1/ 2"), (C3, "2 * z"), (C3, "z^ 2"),
        (C3, "1 +"), (C3, "+ - z"), (QQ, "1 2"), (QQ, "1/ 2"), (QQ, "1 + 2"),
        (F5, "1 2"), (F5, "- - 1"),
    ]:
        with pytest.raises(ValueError):
            field.parse(text)


def test_whitespace_around_signs_parses_in_every_field():
    z = C3.zeta()
    assert C3.parse(" 1 + z ") == C3.one() + z
    assert C3.parse("- z -\t1/2") == -z - C3.coerce(Fraction(1, 2))
    assert C3.parse("2*z^2 - 3") == C3.coerce(2) * (z * z) - C3.coerce(3)
    assert QQ.parse(" - 3/4 ") == Fraction(-3, 4)
    assert F5.parse("+ 7") == 2


def test_blank_entry_is_named_blank_in_every_field():
    for field in (QQ, C3, F5):
        for text in ("", "  "):
            with pytest.raises(ValueError) as err:
                field.parse(text)
            assert str(err.value) == f"cannot parse {text!r}: the entry is blank"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([QQ, C3, F5]), st.text(alphabet="0123456789/+-*z^ ", max_size=12))
def test_parse_raises_only_value_error(field, text):
    try:
        value = field.parse(text)
    except ValueError:
        return
    assert field.parse(str(value)) == value


def _parsed(parse, text):
    try:
        value = parse(text)
    except ValueError as err:
        return "error", str(err)
    return type(value), value


# signs, whitespace (Unicode too), digits, '/' and junk that no rational holds
_RATIONAL_TOKENS = ["+", "-", " ", "\t", "\u00a0", "0", "00", "1", "7", "42", "/", "a", ".",
                    "_", "e", "*", "\u0663"]


# near-rationals: each piece of "sign, digits, /digits" present, doubled or misplaced
_NEAR_RATIONAL = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-", "+-"]),
    st.sampled_from(["", " "]), st.sampled_from(["", "0", "7", "0012"]),
    st.sampled_from(["", "/", "/0", "/00", "/3", "/012", "/ 3", " /3", "/3/4"]),
    st.sampled_from(["", " ", "\n", "x", "-1"]),
).map("".join)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(
    _NEAR_RATIONAL,
    st.lists(st.sampled_from(_RATIONAL_TOKENS), max_size=8).map("".join),
    st.text(alphabet="0123456789/+- \t\n\u00a0\u3000xz.", max_size=10),
))
@example("1/ 2")
@example(" - 0/00 ")
@example("+ 12/0\t")
@example("")
@example("- - 1")
@example("1" * 5000)
@example("1/" + "0" * 5000)
def test_rational_parse_matches_three_pass_reference(text):
    # one anchored match must accept, reject and word its errors as the
    # split, check and Fraction(str) passes did, and build a Fraction
    assert _parsed(QQ.parse, text) == _parsed(oracle.parse_rational, text)


_NEAR_PRIME = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-", "+-", "- "]),
    st.sampled_from(["", " "]), st.sampled_from(["", "0", "7", "0012", "1 2", "\u0663"]),
    st.sampled_from(["", " ", "\n", "x", "-1", "/3"]),
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F5, PrimeField(2**61 - 1)]), st.one_of(
    _NEAR_PRIME,
    st.lists(st.sampled_from(_RATIONAL_TOKENS), max_size=6).map("".join),
    st.text(alphabet="0123456789+- \t\n\u00a0x/", max_size=10),
))
@example(F5, "")
@example(F5, "- - 1")
@example(F5, "+ 7 ")
@example(F5, "-" + "1" * 5000)
@example(F5, "1" * 5000 + " -")
def test_prime_parse_matches_split_reference(field, text):
    # one anchored match must read, reject and word its errors as the split
    # and the check of the one term left did
    assert _parsed(field.parse, text) == _parsed(lambda t: oracle.parse_prime(field.p, t), text)


# one signed term of Q(zeta_n), with each piece present, absent or malformed
_NEAR_TERM = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-", "+-", "- "]),
    st.sampled_from(["", " "]),
    st.sampled_from(["", "0", "3", "012", "1/2", "4/6", "3/0", "0/00", "1/ 2", "2/3/4"]),
    st.sampled_from(["", "", "*", " *", "* "]),
    st.sampled_from(["", "z", "z", "z^", "z^2", "z^0", "z^ 2", "z^12", "zz", "z^3^2", "z2"]),
    st.sampled_from(["", "", " ", "\n", "x"]),
).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([C3, C4, CyclotomicField(6), CyclotomicField(12)]), st.one_of(
    st.lists(_NEAR_TERM, min_size=1, max_size=4).map("".join),
    st.lists(st.sampled_from(_RATIONAL_TOKENS + ["z", "^", "z^2", "*"]), max_size=8).map("".join),
    st.text(alphabet="0123456789/+-*z^ \t\n\u00a0", max_size=12),
))
@example(C3, "")
@example(C3, "1/0 +")
@example(C3, "z 2")
@example(C3, "3*")
@example(C3, "1/0+z^")
@example(C3, "z - 3/00")
@example(C3, "1" * 5000 + "+")
@example(C3, "1" * 5000 + "/0")
@example(C3, "z+1/" + "0" * 5000)
@example(C3, "z^" + "1" * 5000 + "-1/0")
def test_cyclotomic_parse_matches_term_by_term_reference(field, text):
    # one scan summing integer numerators must read, reject and word its
    # errors as the split, the match of each term and Fraction(str) did
    assert _parsed(field.parse, text) == _parsed(lambda t: oracle.parse_cyclotomic(field, t), text)


def test_cyclotomic_polynomial_matches_division_oracle():
    for n in range(1, 400):
        assert cyclotomic_polynomial(n) == oracle.cyclotomic_polynomial(n), n
        assert euler_phi(n) == len(oracle.cyclotomic_polynomial(n)) - 1


def test_cyclotomic_polynomial_of_large_order_is_fast():
    # the division construction took over 50 s at n = 27720
    start = time.perf_counter()
    phi = cyclotomic_polynomial.__wrapped__(27720)
    assert time.perf_counter() - start < 1.0
    assert len(phi) - 1 == 5760 and phi[0] == phi[-1] == 1


def test_cyclotomic_zero_and_one_are_shared():
    assert C3.zero() is C3.zero() and C3.one() is C3.one()
    assert not C3.zero() and C3.one() == 1


def test_cyclotomic_reduction_of_high_powers():
    z = C3.zeta()
    assert oracle.power(z, 3) == 1 and oracle.power(z, 4) == z and oracle.power(z, 5) == z * z
    # exponent arithmetic mod the polynomial, not mod n alone
    w = CyclotomicField(6).zeta()
    assert oracle.power(w, 3) == -1
    assert oracle.power(w, 6) == 1


def test_cyclotomic_inverse_matches_power():
    for n in (3, 4, 5, 12):
        field = CyclotomicField(n)
        z = field.zeta()
        assert field.inverse(z) == oracle.power(z, n - 1)


@pytest.mark.parametrize("n", [3, 5])
def test_parse_reduces_huge_exponents_mod_n(n):
    field = CyclotomicField(n)
    z = field.zeta()
    assert field.parse("z^1000000000000") == oracle.power(z, 10**12 % n)
    assert field.parse("2*z^1000000000001-z^5") == (
        field.coerce(2) * oracle.power(z, (10**12 + 1) % n) - oracle.power(z, 5 % n)
    )


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n in range(-3, 20000) if by_trial_division(n)
    ]
    # strong pseudoprimes to every prime base up to 7, 23 and 37 in turn
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 14 + 31)


# ---------------------------------------------------------------------------
# Q(zeta_n) against the Fraction-polynomial oracle in tests/oracle.py

ORDERS = (3, 4, 5, 7, 8, 9, 12, 15, 97)
FIELDS = {n: CyclotomicField(n) for n in ORDERS}
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def raw_element(n, max_terms):
    """Rational coefficients of a polynomial in z with exponents below 2n.

    Building an element from them folds exponents and divides by Phi_n.
    """
    return st.dictionaries(st.integers(0, 2 * n - 1), RATIONALS, max_size=max_terms).map(
        lambda terms: [terms.get(k, Fraction(0)) for k in range(max(terms, default=-1) + 1)]
    )


@st.composite
def cyclotomic_case(draw):
    """(n, a, b): raw coefficients of two elements of Q(zeta_n).

    Dense in the small fields; in Q(zeta_97) at most six terms each, which
    keeps the Fraction oracle quick (products and inverses fill them in).
    """
    n = draw(st.sampled_from(ORDERS))
    terms = 6 if n == 97 else 2 * n
    return n, draw(raw_element(n, terms)), draw(raw_element(n, terms))


def fractions_of(x):
    """The coefficients of an element as Fractions, after checking its canonical form."""
    assert len(x.coeffs) == x.field.degree and x.den > 0
    assert gcd(x.den, *x.coeffs) == 1
    return tuple(Fraction(c, x.den) for c in x.coeffs)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cyclotomic_case())
def test_cyclotomic_ring_operations_match_oracle(case):
    n, ra, rb = case
    field = FIELDS[n]
    a, b = oracle.cyclotomic(field, ra), oracle.cyclotomic(field, rb)
    oa, ob = oracle.cyclotomic_reduce(n, ra), oracle.cyclotomic_reduce(n, rb)
    assert fractions_of(a) == oa and fractions_of(b) == ob
    assert fractions_of(a + b) == tuple(x + y for x, y in zip(oa, ob))
    assert fractions_of(a - b) == tuple(x - y for x, y in zip(oa, ob))
    assert fractions_of(-a) == tuple(-x for x in oa)
    assert fractions_of(a * b) == oracle.cyclotomic_mul(n, oa, ob)
    assert bool(a) == any(oa)
    assert (a == b) == (oa == ob)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomic_case(), st.integers(-3, 4))
def test_cyclotomic_division_and_powers_match_oracle(case, k):
    n, ra, rb = case
    field = FIELDS[n]
    a, b = oracle.cyclotomic(field, ra), oracle.cyclotomic(field, rb)
    oa, ob = oracle.cyclotomic_reduce(n, ra), oracle.cyclotomic_reduce(n, rb)
    one = oracle.cyclotomic_reduce(n, [1])
    if not any(ob):
        with pytest.raises(DivisionByZero):
            field.inverse(b)
        return
    # q = a / b exactly when q * b = a
    assert oracle.cyclotomic_mul(n, fractions_of(a * field.inverse(b)), ob) == oa
    assert oracle.cyclotomic_mul(n, fractions_of(field.inverse(b)), ob) == one
    power = one
    for _ in range(abs(k)):
        power = oracle.cyclotomic_mul(n, power, ob)
    if k >= 0:
        assert fractions_of(oracle.power(b, k)) == power
    else:
        assert oracle.cyclotomic_mul(n, fractions_of(oracle.power(field.inverse(b), -k)), power) == one


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(ORDERS), RATIONALS, st.integers(-(10**20), 10**20))
def test_cyclotomic_equality_and_hash_agree_with_rationals(n, q, k):
    field = FIELDS[n]
    z = field.zeta()
    for value, x in [
        (k, field.coerce(k)),
        (q, field.from_rational(q)),
        (q, field.parse(str(q))),
        (q, (z + field.coerce(q)) - z),
        (k * q, field.coerce(k) * field.coerce(q)),
        (1, oracle.power(z, n)),
    ]:
        assert x == value and value == x
        assert hash(x) == hash(value)
        assert {value: "found"}[x] == "found"
    assert hash(field.coerce(2)) == hash(2) and hash(field.from_rational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert z != 1 and z != field.coerce(1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomic_case())
def test_cyclotomic_format_parse_round_trip(case):
    n, ra, _ = case
    field = FIELDS[n]
    a = oracle.cyclotomic(field, ra)
    text = str(a)
    assert field.parse(text) == a
    assert field.parse(" " + text.replace("+", " + ").replace("-", " - ") + " ") == a


def test_dense_product_in_the_largest_cyclotomic_field_is_fast():
    # Fraction coefficients, a schoolbook product and a reduction step per
    # exponent above phi(n) took 6.7 s for this product
    n = 997
    field = CyclotomicField(n)
    rng = random.Random(n)
    a, b = (oracle.cyclotomic(field, [rng.randint(-9, 9) for _ in range(field.degree)]) for _ in range(2))
    start = time.perf_counter()
    product = a * b
    assert time.perf_counter() - start < 1.0
    # check it through a ring map to F_p sending zeta to a root of Phi_n mod p
    p = next(p for p in range(n + 1, 100 * n, n) if is_prime(p))
    root = next(r for r in (pow(g, (p - 1) // n, p) for g in range(2, p)) if r != 1)

    def image(x):
        return sum(c * pow(root, i, p) for i, c in enumerate(x.coeffs)) * pow(x.den, -1, p) % p

    assert image(product) == image(a) * image(b) % p


def test_dense_inverse_in_q_zeta97_is_fast():
    # the extended Euclidean algorithm over Q took 20 s for this inverse
    field = CyclotomicField(97)
    rng = random.Random(97)
    a = oracle.cyclotomic(field, [rng.randint(-9, 9) for _ in range(field.degree)])
    start = time.perf_counter()
    inverse = field.inverse(a)
    assert time.perf_counter() - start < 1.0
    assert inverse * a == 1


def test_inverse_of_a_negative_rational_in_q_zeta2():
    # Q(zeta_2) = Q has no other conjugates, so the norm is the element itself
    field = CyclotomicField(2)
    inverse = field.inverse(field.coerce(-3))
    assert inverse == Fraction(-1, 3) and inverse.den == 3


INVERSE_ORDERS = (3, 5, 8, 12, 15, 97)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(INVERSE_ORDERS).flatmap(
    lambda n: st.tuples(st.just(n), raw_element(n, 6 if n == 97 else 2 * n))
))
def test_inverse_by_cyclic_factors_matches_the_conjugate_loop(case):
    # the inverse multiplies O(log phi(n)) conjugates over a cyclic
    # decomposition of (Z/n)^x; the oracle multiplies all phi(n) - 1 of them
    n, raw = case
    a = oracle.cyclotomic(FIELDS[n], raw)
    if not a:
        with pytest.raises(DivisionByZero):
            a.field.inverse(a)
        return
    assert a.field.inverse(a) == oracle.cyclotomic_inverse(a)


def test_dense_inverse_in_q_zeta499_is_fast(monkeypatch):
    # the inverse takes O(log phi(n)) products (17 here), counted rather than
    # timed; multiplying the 497 other conjugates one at a time takes 497
    field = CyclotomicField(499)
    rng = random.Random(499)
    a = oracle.cyclotomic(field, [rng.randint(-9, 9) for _ in range(field.degree)])
    mul = CyclotomicElement.__mul__
    calls = []

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(CyclotomicElement, "__mul__", counted)
    inverse = field.inverse(a)
    assert len(calls) <= 3 * math.ceil(math.log2(euler_phi(499)))
    assert inverse * a == 1
