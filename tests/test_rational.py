from fractions import Fraction

import pytest

from crkit.rational import GaussRational, I, ONE, ZERO


def test_construction_and_parts():
    a = GaussRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.re == Fraction(1, 2)
    assert a.im == Fraction(-3, 4)
    assert GaussRational(2).re == 2
    assert GaussRational(2).im == 0


def test_coerce():
    assert GaussRational.coerce(3) == GaussRational(3)
    assert GaussRational.coerce(Fraction(2, 5)) == GaussRational(Fraction(2, 5))
    a = GaussRational(1, 1)
    assert GaussRational.coerce(a) is a
    with pytest.raises(TypeError):
        GaussRational.coerce(0.5)


def test_equality_against_plain_numbers():
    assert GaussRational(3) == 3
    assert GaussRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussRational(0, 1) != 1
    assert hash(GaussRational(3)) == hash(GaussRational(3, 0))


def test_zero_detection():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert not I.is_zero()
    assert not bool(ZERO)
    assert bool(I)


def test_field_arithmetic():
    a = GaussRational(1, 2)
    b = GaussRational(3, -1)
    assert a + b == GaussRational(4, 1)
    assert a - b == GaussRational(-2, 3)
    # (1 + 2i)(3 - i) = 3 - i + 6i - 2i^2 = 5 + 5i
    assert a * b == GaussRational(5, 5)
    assert -a == GaussRational(-1, -2)
    assert (a / b) * b == a
    assert ONE / I == GaussRational(0, -1)


def test_scalar_mixing():
    a = GaussRational(1, 1)
    assert 2 * a == GaussRational(2, 2)
    assert a * Fraction(1, 2) == GaussRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 + a == GaussRational(2, 1)
    assert 1 - a == GaussRational(0, -1)
    assert a / 2 == GaussRational(Fraction(1, 2), Fraction(1, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert I ** 2 == GaussRational(-1)
    assert I ** 3 == GaussRational(0, -1)
    assert I ** 4 == ONE
    assert GaussRational(2, 1) ** 0 == ONE
    a = GaussRational(Fraction(1, 2), Fraction(1, 3))
    assert a ** 5 == a * a * a * a * a
    with pytest.raises(ValueError):
        I ** -1


def test_conjugate():
    a = GaussRational(Fraction(2, 3), Fraction(-1, 7))
    assert a.conjugate() == GaussRational(Fraction(2, 3), Fraction(1, 7))
    assert a.conjugate().conjugate() == a
    product = a * a.conjugate()
    assert product.im == 0
    assert product.re == Fraction(2, 3) ** 2 + Fraction(1, 7) ** 2


def test_repr_and_str():
    assert str(ONE) == "1"
    assert str(I) == "i"
    assert str(GaussRational(0, -1)) == "-i"
    assert str(GaussRational(Fraction(1, 2))) == "1/2"
    text = str(GaussRational(1, -2))
    assert "1" in text and "2" in text and "i" in text
    assert "GaussRational" in repr(GaussRational(1, 1))
