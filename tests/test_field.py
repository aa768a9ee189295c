from fractions import Fraction

import pytest

from homlie import FieldMismatchError, PrimeField, ReductionError, is_prime, reduce_mod
from homlie.field import QQ, _unlift, field_from_obj
from homlie import rng


def test_canonical_form(qq):
    assert qq.element(Fraction(2, 4)) == qq.element(Fraction(1, 2))
    assert type(qq.element(3)) is Fraction
    # positive denominator, lowest terms
    a = qq.element(Fraction(-4, -6))
    assert (a.numerator, a.denominator) == (2, 3)
    # a (num, den) pair is not a scalar, whatever its entries
    for pair in ((1, 2), (True, 2), (1, 0), (1.5, 2)):
        with pytest.raises(FieldMismatchError):
            qq.element(pair)


def test_reduce_mod_examples():
    assert reduce_mod(Fraction(1, 2), 7) == 4
    assert reduce_mod(Fraction(0), 10007) == 0
    assert reduce_mod(Fraction(-5), 7) == 2


def test_reduce_mod_bad_denominator():
    with pytest.raises(ReductionError):
        reduce_mod(Fraction(1, 14), 7)


def test_reduce_mod_is_ring_morphism():
    p = 101
    s = rng.stream(4242, 0)
    for _ in range(200):
        a = Fraction(s.randint(-50, 50), s.randint(1, 30))
        b = Fraction(s.randint(-50, 50), s.randint(1, 30))
        if a.denominator % p == 0 or b.denominator % p == 0:
            continue
        assert reduce_mod(a + b, p) == (reduce_mod(a, p) + reduce_mod(b, p)) % p
        assert reduce_mod(a * b, p) == reduce_mod(a, p) * reduce_mod(b, p) % p


def _random_scalar(field, s):
    if field is QQ:
        return Fraction(s.randint(-40, 40), s.randint(1, 20))
    return s.below(field.p)


@pytest.mark.parametrize("which", ["rational", "prime"])
def test_field_axioms_on_random_triples(which, qq, f7):
    # the library computes on plain values and reduces once per result
    # vector; the field axioms must hold for that arithmetic, and reducing
    # once must agree with reducing after every operation
    field = qq if which == "rational" else f7
    red = lambda x: field.vector([x])[0]  # noqa: E731
    inv = (lambda a: 1 / a) if field is qq else (lambda a: pow(a, -1, field.p))
    s = rng.stream(99, 1)
    for _ in range(150):
        a, b, c = (_random_scalar(field, s) for _ in range(3))
        assert red(red(a + b) + c) == red(a + red(b + c)) == red(a + b + c)
        assert red(a * red(b + c)) == red(red(a * b) + red(a * c)) == red(a * (b + c))
        assert red(a + red(-a)) == field.zero
        if a != field.zero:
            assert red(a * inv(a)) == field.one


def test_vector_is_the_one_reduction(qq, f7):
    assert f7.vector([5 + 4, 3 * 5, -1, 0]) == (2, 1, 6, 0)
    x = (Fraction(-7, 3), 2, Fraction(0))
    assert qq.vector(iter(x)) == x
    assert (qq.p, f7.p) == (0, 7)


def test_lift_is_the_common_denominator_scaling(qq, f7):
    assert qq.lift([Fraction(1, 2), Fraction(-2, 3), 5, Fraction(0)]) == ([3, -4, 30, 0], 6)
    assert qq.lift([Fraction(4), 7, Fraction(0)]) == ([4, 7, 0], 1)
    assert qq.lift([]) == ([], 1)
    assert f7.lift((3, 0, 6)) == ([3, 0, 6], 1)
    big = 10**30 + 57
    ints, d = qq.lift([Fraction(1, big), Fraction(1, 1073741789), Fraction(5, 3)])
    assert d == big * 1073741789 * 3
    assert all(type(x) is int for x in ints)
    s = rng.stream(19, 0)
    for _ in range(50):
        values = [Fraction(s.randint(-9, 9), s.randint(1, 40)) for _ in range(s.randint(1, 8))]
        ints, d = qq.lift(values)
        back = _unlift(qq, ints, d)
        assert back == values and all(type(x) is Fraction for x in back)
        assert _unlift(f7, [x * 3 for x in ints]) == [x * 3 % 7 for x in ints]


def test_field_mismatch_is_detected(qq, f7):
    with pytest.raises(FieldMismatchError):
        qq.element("3")
    with pytest.raises(FieldMismatchError):
        f7.element(Fraction(1, 2))
    qq.check([[Fraction(1, 2), -3], []])
    f7.check([[0, 6], [10**30]])
    for field, bad in ((qq, 0.5), (qq, True), (f7, Fraction(1, 2)), (f7, False), (f7, 0.0)):
        with pytest.raises(FieldMismatchError):
            field.check([[field.one], [field.zero, bad]])


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(10007) and is_prime(2**31 - 1)
    assert not is_prime(0) and not is_prime(1) and not is_prime(561) and not is_prime(10**6)
    assert not is_prime(7919 * 7927)


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**63 + 1)


def test_parse_and_format_literals(qq, f7):
    for text in ("-3/4", "17", "0", "+5", "2/6"):
        assert qq.format(qq.parse(text)) == str(Fraction(text))
    assert f7.parse("12") == 5
    assert f7.parse("-5") == 2
    assert f7.format(f7.parse("-5")) == "2"


def test_parse_rejects_bad_literals(qq, f7):
    # "\u0663" is ARABIC-INDIC DIGIT THREE: a digit, but not an ASCII one
    for text in ("", "a", "1.5", "1/0", "1/ 2", "--3", "\u0663", "1/\u0663"):
        with pytest.raises(ValueError):
            qq.parse(text)
    for text in ("1/2", "x", "", "\u0663"):
        with pytest.raises(ValueError):
            f7.parse(text)


def test_field_equality_and_serialization(qq, f7):
    assert qq == QQ
    assert f7 == PrimeField(7)
    assert f7 != PrimeField(11)
    assert qq != f7
    assert field_from_obj({"kind": "rational"}) == qq
    assert field_from_obj({"kind": "prime", "p": 7}) == f7
    with pytest.raises(ValueError):
        field_from_obj({"kind": "prime"})
    with pytest.raises(ValueError):
        field_from_obj({"kind": "real"})
