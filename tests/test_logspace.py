import cmath
import math

import pytest
from hypothesis import given, strategies as st

from finehull.logspace import LogComplex, log1p_complex, logsum, wrap_angle

finite_angles = st.floats(-50.0, 50.0, allow_nan=False)
moderate = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False)


def test_wrap_angle_keeps_pi():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


@given(finite_angles)
def test_wrap_angle_canonical_range(theta):
    t = wrap_angle(theta)
    assert -math.pi < t <= math.pi
    assert cmath.exp(1j * t) == pytest.approx(cmath.exp(1j * theta),
                                              abs=1e-9)


@given(moderate)
def test_roundtrip_through_log_polar(z):
    back = LogComplex.from_complex(z).to_complex()
    assert back == pytest.approx(z, rel=1e-12)


def test_zero_and_one():
    z = LogComplex.from_complex(2.0 + 1.0j)
    assert (z * LogComplex.one()).to_complex() == pytest.approx(2.0 + 1.0j)
    assert (z * LogComplex.zero()).is_zero
    assert LogComplex.from_complex(0.0).is_zero
    assert LogComplex.zero().to_complex() == 0.0


def test_products_below_double_underflow():
    # exp(-360) squared is far below 1e-308 yet stays exact in log form
    t = LogComplex(-360.0, 0.0)
    assert (t * t).log_mag == -720.0
    assert (t / t).to_complex() == 1.0


def test_negation_and_conjugate_keep_canonical_arg():
    z = LogComplex.from_complex(-3.0)
    assert z.arg == math.pi
    assert z.conj().arg == math.pi
    assert (-z).to_complex() == pytest.approx(3.0)


def test_principal_sqrt_of_negative_real():
    r = LogComplex.from_complex(-4.0).sqrt()
    assert r.to_complex() == pytest.approx(2.0j)


@given(moderate, st.integers(-6, 6))
def test_integer_powers(z, k):
    got = LogComplex.from_complex(z).powi(k).to_complex()
    assert got == pytest.approx(z ** k, rel=1e-9)


def test_logsum_oracle():
    terms = [LogComplex.from_complex(3.0), LogComplex.from_complex(4.0)]
    assert logsum(terms).to_complex() == pytest.approx(7.0)


def test_logsum_cancellation():
    # opposite terms cancel to the rounding floor of the rect() calls
    terms = [LogComplex.from_complex(1.0), LogComplex.from_complex(-1.0)]
    assert logsum(terms).log_mag < -30.0


def test_logsum_dominant_term():
    terms = [LogComplex(-800.0, 0.0), LogComplex(-1600.0, 0.0)]
    assert logsum(terms).log_mag == pytest.approx(-800.0)


@given(st.complex_numbers(max_magnitude=0.5, allow_nan=False,
                          allow_infinity=False))
def test_log1p_complex_matches_reference(u):
    assert log1p_complex(u) == pytest.approx(cmath.log(1.0 + u), abs=1e-12)


def test_log1p_complex_tiny_argument():
    u = 1e-30 + 0j
    assert log1p_complex(u).real == pytest.approx(1e-30, rel=1e-12)


def test_from_complex_survives_a_modulus_past_the_largest_double():
    z = complex(1.5e308, -1.5e308)
    v = LogComplex.from_complex(z)
    assert v.log_mag == pytest.approx(math.log(1.5e308) + 0.5 * math.log(2.0),
                                      rel=1e-15)
    assert v.arg == -0.25 * math.pi
