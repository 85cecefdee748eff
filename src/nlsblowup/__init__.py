"""Numerical laboratory for minimal-mass blow-up of a radial NLS equation.

The equation under study is the mass-critical nonlinear Schroedinger equation
perturbed by a subcritical power nonlinearity and an inverse-power potential,

    i u_t + Lap u + |u|^(4/N) u + C1 |u|^(p-1) u + C2 |x|^(-2*sigma) u = 0,

restricted to radial data in dimension N in {1, 2, 3}.  The modules provide:

- core:        parameters, radial grids, quadrature, norms, operators,
               and the equation's local terms
- groundstate: the positive decaying soliton profile and its cached norms
- linops:      linearized operators around the soliton, bordered solves
- profile:     the blow-up profile expansion and its residual diagnostics
- modulation:  decomposition of near-soliton fields into (scale, curvature,
               phase, remainder)
- reduced:     the reduced parameter ODEs, regime classification,
               closed-form approximants, and initialization
- sim:         direct time propagation with dynamic rescaling and rate fits
- cli:         command-line front end

Import policy: the modules load numpy, the top-level scipy package and
scipy's compiled LAPACK module (``core._lapack``) at import, not the
scipy.linalg package; every scipy subpackage, and the sweep's process
pool, loads inside the one function that calls it, so a process pays only
for the solvers it runs.
"""

from __future__ import annotations

__version__ = "0.1.0"
