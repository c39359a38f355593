"""Phi and Phi^-1 as the engine calls them, checked through their callers.

cohen_bound(0.5, 1, r) is Phi(-r), cohen_radius(p, 1) is Phi^-1(p), and the
Gaussian discrepancy at lambda = 1 and shift 2x is Phi(x) - Phi(-x).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcert import (
    DomainError,
    cohen_bound,
    cohen_radius,
    discrepancy_gaussian_closed_form,
)
from _oracles import normal_cdf_series

# frozen from the erf power-series oracle (normal_cdf_series(1.0))
PHI_ONE = 0.8413447460685428


class TestNormalCdf:
    def test_value_at_one_vs_series_oracle(self):
        assert abs(cohen_bound(0.5, 1.0, 1.0) - (1.0 - PHI_ONE)) < 1e-12
        assert abs(cohen_bound(0.5, 1.0, 1.0) - normal_cdf_series(-1.0)) < 1e-12

    def test_series_oracle_on_grid(self):
        for x in np.linspace(0.0, 3.0, 25):
            x = float(x)
            assert abs(cohen_bound(0.5, 1.0, x) - normal_cdf_series(-x)) < 1e-12
            d = discrepancy_gaussian_closed_form(1.0, 2.0 * x, 1.0)
            assert abs(d - (2.0 * normal_cdf_series(x) - 1.0)) < 1e-12

    def test_tail_saturation(self):
        # the tails underflow to exactly 0 and 1 without raising
        assert cohen_bound(0.5, 1.0, 60.0) == 0.0
        assert discrepancy_gaussian_closed_form(1.0, 120.0, 1.0) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            cohen_bound(0.9, math.inf, math.inf)  # r / sigma is NaN
        with pytest.raises(DomainError):
            discrepancy_gaussian_closed_form(math.inf, 1.0, 1.0)  # inf * ln(1) is NaN


class TestNormalQuantile:
    def test_median(self):
        assert cohen_radius(0.5, 1.0) == 0.0

    def test_inverse_of_phi_oracle(self):
        assert abs(cohen_radius(0.8413447461, 1.0) - 1.0) <= 1e-8

    def test_roundtrip_on_integers(self):
        for x in range(-3, 4):
            assert abs(cohen_radius(normal_cdf_series(float(x)), 1.0) - x) <= 1e-8

    def test_newton_polish_contract(self):
        # Phi(Phi^-1(p)) = p to 1e-12 relative, deep into both tails
        for p in [1e-12, 1e-6, 0.02425, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12]:
            assert abs(cohen_bound(p, 1.0, 0.0) - p) <= 1e-12 * p

    @given(st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, r):
        assert abs(cohen_radius(cohen_bound(0.5, 1.0, r), 1.0) + r) <= 1e-8
