import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_otto.errors import DomainError
from unruh_otto.kinematics import (Worldline, contact_durations,
                                   trajectory_point, velocity)


def test_vertex():
    t, x = trajectory_point(Worldline(alpha=2.5, v=0.8), 0.0)
    assert t == 0.0
    assert x == pytest.approx(0.4, rel=1e-15)


def test_endpoint_coordinates():
    # at tau = arctanh(0.8)/alpha: sinh = 4/3, cosh = 5/3
    w = Worldline(alpha=1.0, v=0.8)
    t, x = trajectory_point(w, w.tau_half)
    assert t == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert x == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_endpoint_speeds():
    w = Worldline(alpha=3.0, v=0.6)
    assert velocity(w, w.tau_half) == pytest.approx(0.6, rel=1e-12)
    assert velocity(w, -w.tau_half) == pytest.approx(-0.6, rel=1e-12)
    assert velocity(w, 0.0) == 0.0


@given(alpha=st.floats(0.1, 100.0), v=st.floats(0.01, 0.99),
       frac=st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_hyperbola_constraint(alpha, v, frac):
    w = Worldline(alpha=alpha, v=v)
    t, x = trajectory_point(w, frac * w.tau_half)
    assert x * x - t * t == pytest.approx(1.0 / alpha ** 2, rel=1e-12)


def test_tau_half():
    w = Worldline(alpha=4.0, v=0.8)
    assert w.tau_half == pytest.approx(math.atanh(0.8) / 4.0, rel=1e-15)


def test_outside_contact_interval():
    w = Worldline(alpha=1.0, v=0.5)
    with pytest.raises(DomainError, match="contact interval"):
        trajectory_point(w, w.tau_half * 1.0001)


@pytest.mark.parametrize("alpha,v", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0),
                                     (1.0, 1.0), (1.0, 1.5),
                                     (math.inf, 0.5)])
def test_worldline_domain(alpha, v):
    with pytest.raises(DomainError):
        Worldline(alpha=alpha, v=v)


def test_contact_durations_formulas():
    hot, cold = contact_durations(2.0, 8.0, 0.8)
    assert hot == pytest.approx(math.atanh(0.8), rel=1e-15)
    assert cold == pytest.approx(2.0 * math.atanh(0.8) / 8.0, rel=1e-15)


def test_contact_durations_symmetric():
    hot, cold = contact_durations(5.0, 5.0, 0.4)
    assert hot == cold


def test_contact_durations_vanish_with_speed():
    hot, cold = contact_durations(1.0, 2.0, 1e-9)
    assert hot < 1e-8 and cold < 1e-8


def test_contact_durations_speed_ceiling():
    with pytest.raises(DomainError, match=r"v out of \(0, tanh\(pi\)\)"):
        contact_durations(1.0, 1.0, 0.999)
    with pytest.raises(DomainError):
        contact_durations(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError, match="alpha_H must be positive and finite"):
        contact_durations(math.inf, 1.0, 0.5)
