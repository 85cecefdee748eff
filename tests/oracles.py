"""Exact solutions the propagator tests compare against."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from nlsblowup.core import RadialField, RadialGrid
from nlsblowup.groundstate import GroundState


def even_cubic(f: RadialField) -> CubicSpline:
    """scipy's not-a-knot cubic spline of f's 2n-point even extension."""
    r = f.grid.nodes
    return CubicSpline(np.concatenate([-r[::-1], r]),
                       np.concatenate([f.values[::-1], f.values]))


def pseudo_conformal_reference(t: float, grid: RadialGrid,
                               groundstate: GroundState) -> RadialField:
    """Exact critical-branch solution |t|^{-N/2} Q(x/|t|) e^{-i/t} e^{i x^2/(4t)}.

    Valid for t < 0 (blow-up at t = 0); the soliton is sampled by spline
    and zeroed beyond the source support.
    """

    if t >= 0.0:
        raise ValueError("pseudo-conformal reference requires t < 0")
    N = grid.N
    x = grid.nodes
    spl = even_cubic(groundstate.Q)
    y = x / abs(t)
    qv = np.where(y <= groundstate.grid.rmax, spl(y), 0.0)
    vals = (abs(t) ** (-0.5 * N) * qv
            * np.exp(-1j / t) * np.exp(0.25j * x ** 2 / t))
    return RadialField(grid, vals)
