"""Shared fixtures: ground states and expansions reused across test modules.

The expensive artifacts (fine-grid solitons, profile expansions, full
blow-up simulations) are session-scoped so each is computed once and every
test that needs it reads the same object.
"""

from __future__ import annotations

import pytest

from nlsblowup.core import _lapack, make_grid, make_params
from nlsblowup.groundstate import compute_omega, solve_ground_state
from nlsblowup.profile import build_profile


@pytest.fixture(scope="session")
def params_critical():
    return make_params(1, None, 0.2, 0.0, "critical", 1.0)


@pytest.fixture(scope="session")
def gs_profile(params_critical):
    """N=1 soliton on the profile-resolution grid."""
    return solve_ground_state(params_critical, make_grid(1, 8192, 20.0))


@pytest.fixture(scope="session")
def gs_coarse(params_critical):
    """N=1 soliton on a coarse grid for cheap structural tests."""
    return solve_ground_state(params_critical, make_grid(1, 2048, 18.0))


@pytest.fixture(scope="session")
def omega_profile(gs_profile, params_critical):
    return compute_omega(gs_profile, params_critical)


@pytest.fixture(scope="session")
def params_balanced(omega_profile):
    return make_params(1, None, 0.2, omega_profile, "plusminus", 1.0)


@pytest.fixture(scope="session")
def params_unbalanced(omega_profile):
    """Plus-minus branch with the coupling at twice the balance point."""
    return make_params(1, None, 0.2, 2.0 * omega_profile, "plusminus", 1.0)


@pytest.fixture(scope="session")
def expansion_balanced(gs_profile, params_balanced):
    return build_profile(gs_profile, params_balanced, order=2)


@pytest.fixture(scope="session")
def expansion_unbalanced(gs_profile, params_unbalanced):
    return build_profile(gs_profile, params_unbalanced, order=2)


@pytest.fixture
def factorizations(monkeypatch):
    """Names of the LAPACK band factor routines called while the test
    runs, one entry per factorization ``core.Operator`` makes (counted on
    ``core._lapack``, the LAPACK module the package calls)."""
    calls = []
    for name in ("dgbtrf", "zgbtrf", "dgttrf", "zgttrf"):
        def counted(*args, _trf=getattr(_lapack, name), _name=name, **kw):
            calls.append(_name)
            return _trf(*args, **kw)
        monkeypatch.setattr(_lapack, name, counted)
    return calls
