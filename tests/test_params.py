import json
import math

import pytest
from hypothesis import given, settings

from critsys.errors import DomainError
from critsys.params import make_params, params_from_dict

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
    with pytest.raises(DomainError) as err:
        make_params(0, 0.5, 1.5, 1.0, 1.0, 1.0)
    assert err.value.constraint == "n"
    # integers beyond the float range are refused, not overflowed
    with pytest.raises(DomainError) as err:
        make_params(10 ** 400, 0.5, 1.5, 1.0, 1.0, 1.0)
    assert err.value.constraint == "n"
    with pytest.raises(DomainError) as err:
        make_params(3, 0.5, 1.5, 10 ** 400, 1.0, 1.0)
    assert err.value.constraint == "mu1"
    with pytest.raises(DomainError):
        make_params(3, float("nan"), 1.5, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        make_params(3, 0.5, 1.5, 1.0, 1.0, float("inf"))


def test_critical_exponent_far_above_4096_builds():
    # 2* is about 15001: beta = 2* - alpha rounds by more than 1e-12 there,
    # which is no reason to refuse the point
    p = make_params(2, 0.9998666793056956, 2300.1004349324694, 1.0, 1.0, 1.0)
    assert p.beta == p.two_star - p.alpha
    assert p.two_star > 15000.0
    # a beta one ulp off the derived one, 1.8e-12 away, agrees with it
    assert params_from_dict({"n": 2, "s": p.s, "alpha": p.alpha,
                             "beta": math.nextafter(p.beta, math.inf),
                             "mu1": 1.0, "mu2": 1.0, "gamma": 1.0}) == p


@pytest.mark.parametrize("key", ["s", "alpha", "mu1", "mu2", "gamma", "beta"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_parameter_is_refused(key, value):
    fields = {"n": 3, "s": 0.5, "alpha": 1.5, "mu1": 1.0, "mu2": 1.0,
              "gamma": 1.0, key: value}
    with pytest.raises(DomainError, match="finite real number") as err:
        params_from_dict(fields)
    assert err.value.constraint == key


def test_critical_exponent_values():
    assert make_params(3, 0.5, 1.5, 1, 1, 0).two_star == pytest.approx(3.0)
    assert make_params(4, 0.9, 1.5, 1, 1, 0).two_star \
        == pytest.approx(8.0 / 2.2, rel=1e-15)
    assert make_params(1, 0.4, 5.0, 1, 1, 0).two_star \
        == pytest.approx(10.0, abs=1e-12)


@given(system_params())
@settings(max_examples=200)
def test_sum_constraint_holds_exactly(p):
    assert abs(p.alpha + p.beta - p.two_star) <= 1e-12
    assert p.alpha > 1.0 and p.beta > 1.0
    assert p.two_star > 2.0


def test_params_from_dict_roundtrip():
    p = params_from_dict({"n": 3, "s": 0.5, "alpha": 1.5, "mu1": 1.0,
                          "mu2": 2.0, "gamma": -1.0})
    assert p.mu2 == 2.0 and p.gamma == -1.0
    q = params_from_dict(json.loads(
        '{"n": 1, "s": 0.4, "alpha": 5.0, "mu1": 1, "mu2": 1, "gamma": 8}'))
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
