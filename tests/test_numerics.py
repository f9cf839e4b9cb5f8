import math

import pytest
from hypothesis import given, strategies as st

from tensordd.numerics import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    canonical,
    format_weight,
    is_one,
    is_zero,
    weights_equal,
)

EPS = DEFAULT_TOLERANCE.eps

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
weights = st.builds(complex, finite, finite)


def test_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eps=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps=-1e-10)
    for eps in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ToleranceConfig(eps=eps)


def test_canonical_rounds_to_grid():
    assert canonical(1.0 + 0.4 * EPS) == 1.0
    assert canonical(1.0 + 0.6 * EPS) == 1.0 + EPS
    assert canonical(complex(0.0, -0.4 * EPS)) == 0.0


def test_canonical_collapses_negative_zero():
    w = canonical(complex(-1e-15, -1e-15))
    assert math.copysign(1.0, w.real) == 1.0
    assert math.copysign(1.0, w.imag) == 1.0


def test_canonical_rejects_non_finite():
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ValueError):
            canonical(bad)


@given(weights)
def test_canonical_idempotent(w):
    assert canonical(canonical(w)) == canonical(w)


# diagram weights stay within |w| <= 1 + 2 eps, so the closeness guarantee
# only needs to hold at moderate magnitudes where n*eps is still exact
@given(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_canonical_close_to_input(w):
    c = canonical(w)
    assert abs(c.real - w.real) <= 0.5 * EPS + 1e-13
    assert abs(c.imag - w.imag) <= 0.5 * EPS + 1e-13


@given(weights, weights)
def test_weights_equal_matches_canonical(a, b):
    assert weights_equal(a, b) == (canonical(a) == canonical(b))


@given(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       st.floats(min_value=-0.45, max_value=0.45))
def test_weights_equal_absorbs_noise_around_grid_points(w, frac):
    base = canonical(w)
    assert weights_equal(base, base + complex(frac * EPS, -frac * EPS))


def test_weights_equal_is_transitive_across_a_cell_boundary():
    # ball comparisons fail exactly here: a~b and b~c but not a~c
    a, b, c = 0.0, 0.6 * EPS, 1.2 * EPS
    assert not weights_equal(a, b)
    assert weights_equal(b, c)


def test_is_zero_band():
    assert is_zero(0j)
    assert is_zero(complex(0.4 * EPS, -0.4 * EPS))
    assert not is_zero(complex(0.6 * EPS, 0.0))
    assert not is_zero(complex(0.0, -0.6 * EPS))


def test_is_one():
    assert is_one(1.0 + 0.3 * EPS)
    assert not is_one(1.0 + 2 * EPS)
    assert not is_one(1j)


def test_format_weight():
    assert format_weight(1.0) == "1"
    assert format_weight(-0.5) == "-0.5"
    assert format_weight(1j) == "1i"
    assert format_weight(complex(1, -2)) == "1-2i"
    assert format_weight(complex(0.25, 0.75)) == "0.25+0.75i"
    assert format_weight(1 / math.sqrt(2)) == "0.707107"
