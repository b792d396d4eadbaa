"""Exact dyadic angle arithmetic."""
import math

import pytest

from blochsynth.angles import PI, PI_2, PI_4, ZERO, Angle


def test_normalization_reduces_and_wraps():
    assert Angle(2, 4) == Angle(1, 2)
    assert Angle(8, 8) == Angle(1, 1)
    assert Angle(5, 4) == Angle(-3, 4)        # 5/4 wraps into (-1, 1]
    assert Angle(-1, 1) == Angle(1, 1)        # -pi is represented as +pi
    assert Angle(3, -4) == Angle(-3, 4)
    assert Angle(128, 64) == ZERO


def test_denominator_must_be_dyadic_and_bounded():
    for den in (3, 6, 128, 0):
        with pytest.raises(ValueError):
            Angle(1, den)
    Angle(1, 64)  # largest legal denominator


def test_arithmetic_is_exact_mod_2pi():
    assert Angle(3, 4) + Angle(3, 4) == Angle(-1, 2)
    assert PI + PI == ZERO
    assert -Angle(1, 4) == Angle(-1, 4)
    assert Angle(1, 4) - Angle(1, 2) == Angle(-1, 4)
    assert (-PI) == PI
    assert Angle(1, 64) + Angle(1, 64) == Angle(1, 32)


def test_float_value():
    assert math.isclose(float(PI_4), math.pi / 4, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(float(Angle(-1, 2)), -math.pi / 2, rel_tol=0, abs_tol=1e-15)
    assert float(ZERO) == 0.0
    assert math.isclose(float(Angle(7, 8)), 7 * math.pi / 8, abs_tol=1e-15)


def test_parse_and_str_round_trip():
    for text in ("1/4", "-3/8", "1", "0", "-1/2", "7/64"):
        assert str(Angle.parse(text)) == text
    assert Angle.parse(" 1/2 ") == PI_2
    with pytest.raises(ValueError):
        Angle.parse("1/3")
    with pytest.raises(ValueError):
        Angle.parse("x")


def test_pi_string_renders_in_positive_range():
    assert ZERO.pi_string() == "0"
    assert PI.pi_string() == "π"
    assert PI_2.pi_string() == "π/2"
    assert Angle(-1, 4).pi_string() == "7π/4"
    assert Angle(-1, 2).pi_string() == "3π/2"
    assert Angle(3, 4).pi_string() == "3π/4"
    assert Angle(-3, 4).pi_string() == "5π/4"


def test_as_positive():
    assert Angle(-1, 4).as_positive() == (7, 4)
    assert ZERO.as_positive() == (0, 1)
    assert PI.as_positive() == (1, 1)


def test_equals_mod_2pi():
    assert PI.equals_mod_2pi(Angle(-1, 1))
    assert (PI + PI_2).equals_mod_2pi(Angle(-1, 2))
    assert not PI.equals_mod_2pi(ZERO)


def test_addition_matches_float_arithmetic():
    values = [Angle(n, d) for d in (1, 2, 4, 8, 16, 32, 64)
              for n in range(-d, d + 1)]
    for a in values[::7]:
        for b in values[::5]:
            total = a + b
            # Compare on the circle: representatives at the +-pi cut differ.
            gap = math.remainder(float(total) - (float(a) + float(b)),
                                 2 * math.pi)
            assert abs(gap) <= 1e-12


def test_is_zero_and_constants():
    assert ZERO.is_zero()
    assert not PI.is_zero()
    assert PI_2 + PI_2 == PI
    assert PI_4 + PI_4 == PI_2
