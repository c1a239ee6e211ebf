"""The integer-parameter rule shared by the series, Barnes and contour routes."""

from __future__ import annotations

import math

import pytest

from betagap.barnes import log_b_const, log_tau_hard
from betagap.contour import hard_contour_E0
from betagap.errors import ParameterQuantizationError, quantized
from betagap.gap import exact_E0_hard, exact_En_hard


def test_quantized_rounds_near_integers() -> None:
    assert quantized("m", 2.0) == 2
    assert quantized("m", 3.0 + 5e-10) == 3
    assert quantized("m", 0.0) == 0
    assert isinstance(quantized("m", 1.0), int)


@pytest.mark.parametrize("value", [0.5, -1.0, 1.0 + 1e-8])
def test_quantized_rejects_finite_values(value: float) -> None:
    with pytest.raises(ParameterQuantizationError) as info:
        quantized("beta*a/2", value)
    assert str(info.value) == (
        f"beta*a/2 must be a nonnegative integer for this route, got {value}"
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_quantized_rejects_non_finite_values(value: float) -> None:
    with pytest.raises(ParameterQuantizationError, match=r"^beta must be"):
        quantized("beta", value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_E0_hard(1.0, math.inf, 2.0),
        lambda: exact_E0_hard(1.0, math.nan, 2.0),
        lambda: exact_En_hard(1.0, 0.0, math.inf, 1),
        lambda: log_tau_hard(math.inf, 2.0),
        lambda: log_b_const(math.nan, 2.0),
        lambda: hard_contour_E0(1.0, math.inf, 2.0),
    ],
    ids=["E0-a-inf", "E0-a-nan", "En-beta-inf", "tau-a-inf", "b-a-nan", "contour-a-inf"],
)
def test_routes_reject_non_finite_parameters(call) -> None:
    with pytest.raises(ParameterQuantizationError):
        call()
