import math

import pytest
from hypothesis import given, settings

from critsys.errors import DomainError
from critsys.params import (derived_exponents, make_params, params_from_dict,
                            params_from_json)

from conftest import system_params


def test_basic_construction():
    p = make_params(3, 0.5, 1.5, 1.0, 1.0, 1.0)
    assert p.two_star == pytest.approx(3.0, abs=1e-15)
    assert p.beta == pytest.approx(1.5, abs=1e-15)


def test_high_power_construction():
    p = make_params(1, 0.4, 5.0, 1.0, 1.0, 8.0)
    assert p.two_star == pytest.approx(10.0, abs=1e-12)
    assert p.beta == pytest.approx(5.0, abs=1e-12)


def test_s_boundary_rejected():
    with pytest.raises(DomainError, match="s out of range"):
        make_params(2, 1.0, 1.5, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError, match="s out of range"):
        make_params(2, 0.0, 1.5, 1.0, 1.0, 0.0)


def test_named_rejections():
    with pytest.raises(DomainError) as err:
        make_params(1, 0.6, 1.5, 1.0, 1.0, 0.0)
    assert err.value.constraint == "n > 2s"
    with pytest.raises(DomainError) as err:
        make_params(3, 0.5, 0.9, 1.0, 1.0, 0.0)
    assert err.value.constraint == "alpha"
    with pytest.raises(DomainError) as err:
        make_params(3, 0.5, 2.5, 1.0, 1.0, 0.0)  # beta would be 0.5
    assert err.value.constraint == "alpha"
    with pytest.raises(DomainError) as err:
        make_params(3, 0.5, 1.5, -1.0, 1.0, 0.0)
    assert err.value.constraint == "mu1"
    with pytest.raises(DomainError) as err:
        make_params(3, 0.5, 1.5, 1.0, 0.0, 0.0)
    assert err.value.constraint == "mu2"
    with pytest.raises(DomainError) as err:
        make_params(3.5, 0.5, 1.5, 1.0, 1.0, 0.0)
    assert err.value.constraint == "n"
    with pytest.raises(DomainError):
        make_params(3, float("nan"), 1.5, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        make_params(3, 0.5, 1.5, 1.0, 1.0, float("inf"))


def test_critical_exponent_values():
    assert make_params(3, 0.5, 1.5, 1, 1, 0).two_star == pytest.approx(3.0)
    assert make_params(4, 0.9, 1.5, 1, 1, 0).two_star \
        == pytest.approx(8.0 / 2.2, rel=1e-15)
    assert make_params(1, 0.4, 5.0, 1, 1, 0).two_star \
        == pytest.approx(10.0, abs=1e-12)


def test_derived_exponents():
    d = derived_exponents(make_params(3, 0.5, 1.5, 1, 1, 0))
    assert d.two_star == pytest.approx(3.0)
    assert d.p_half == pytest.approx(0.5)
    assert d.decay_power == pytest.approx(2.0)
    assert d.p_half > 0


@given(system_params())
@settings(max_examples=200)
def test_sum_constraint_holds_exactly(p):
    assert abs(p.alpha + p.beta - p.two_star) <= 1e-12
    assert p.alpha > 1.0 and p.beta > 1.0
    assert derived_exponents(p).p_half > 0.0


def test_params_from_dict_roundtrip():
    p = params_from_dict({"n": 3, "s": 0.5, "alpha": 1.5, "mu1": 1.0,
                          "mu2": 2.0, "gamma": -1.0})
    assert p.mu2 == 2.0 and p.gamma == -1.0
    q = params_from_json(
        '{"n": 1, "s": 0.4, "alpha": 5.0, "mu1": 1, "mu2": 1, "gamma": 8}')
    assert q.beta == pytest.approx(5.0, abs=1e-12)


def test_params_from_dict_validates_beta():
    good = {"n": 3, "s": 0.5, "alpha": 1.5, "beta": 1.5, "mu1": 1.0,
            "mu2": 1.0, "gamma": 0.0}
    assert params_from_dict(good).beta == pytest.approx(1.5)
    bad = dict(good, beta=1.7)
    with pytest.raises(DomainError, match="inconsistent"):
        params_from_dict(bad)


def test_params_from_dict_missing_fields():
    with pytest.raises(DomainError, match="missing"):
        params_from_dict({"n": 3, "s": 0.5})


def test_replace_gamma_keeps_rest():
    p = make_params(3, 0.5, 1.4, 1.0, 2.0, 1.0)
    q = p.replace_gamma(-0.5)
    assert q.gamma == -0.5 and q.alpha == p.alpha and q.mu2 == p.mu2
