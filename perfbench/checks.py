"""Reference values computed apart from the program, and the output checks.

Every reference comes from the exact one-dimensional soliton
Q(x) = 3^(1/4) sech^(1/2)(2x) of -Q'' + Q - Q^5 = 0, integrated with
``scipy.integrate.quad``, or from the paper's closed forms.  Nothing here
imports ``nlsblowup``.  Each ``check_*`` takes a plain dict of program
outputs and returns the list of problems it found; an empty list passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

SIGMA = 0.2                      # potential strength of every workload
P_SUB = 1.0 + 4.0 * SIGMA        # subcritical exponent matched to sigma (N=1)
ALPHA = 2.0 - 2.0 * SIGMA        # common smallness order of both terms


def _Q(x: float) -> float:
    # sech^(1/2)(2x) written without cosh, which overflows far out
    e = math.exp(-2.0 * abs(x))
    return 3.0 ** 0.25 * math.sqrt(2.0 * e / (1.0 + e * e))


def _line_integral(f) -> float:
    """Integral over the real line of an even integrand (cusp at 0 allowed)."""
    head, _ = quad(f, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-13)
    tail, _ = quad(f, 1.0, math.inf, limit=200, epsabs=0.0, epsrel=1e-13)
    return 2.0 * (head + tail)


@dataclass(frozen=True)
class Reference:
    """Norms of the exact soliton and the closed forms built on them."""

    Q0: float
    mass: float
    virial: float        # int x^2 Q^2
    potential: float     # int |x|^(-2 sigma) Q^2
    lp1: float           # int Q^(p+1)
    omega: float         # (p+1)/2 * potential / lp1

    def balanced_coefficient(self, E0: float) -> float:
        """lambda(t) ~ c (T - t) with c = sqrt(8 E0 / int x^2 Q^2)."""
        return math.sqrt(8.0 * E0 / self.virial)

    def lambda_s_limit(self, E0: float) -> float:
        """Balanced reduced flow: lambda * s -> sqrt(int x^2 Q^2 / (8 E0))."""
        return math.sqrt(self.virial / (8.0 * E0))

    def beta(self, c0_over_omega: float) -> float:
        """Leading multiplier on the C1 > 0 > C2 branch (C2 = -1).

        Pairing the bordered equation with the scaling direction gives
        beta = 4 (C0 k ||Q||_{p+1}^{p+1} - sigma ||x^-sigma Q||^2) / ||xQ||^2
        with k = (p-1)/(2(p+1)); at C0 = omega the bracket is zero.
        """
        return (4.0 * SIGMA * self.potential / self.virial
                * (c0_over_omega - 1.0))


def reference() -> Reference:
    mass = _line_integral(lambda x: _Q(x) ** 2)
    virial = _line_integral(lambda x: x * x * _Q(x) ** 2)
    potential = _line_integral(lambda x: x ** (-2.0 * SIGMA) * _Q(x) ** 2)
    lp1 = _line_integral(lambda x: _Q(x) ** (P_SUB + 1.0))
    return Reference(Q0=_Q(0.0), mass=mass, virial=virial,
                     potential=potential, lp1=lp1,
                     omega=0.5 * (P_SUB + 1.0) * potential / lp1)


# Exact constants the quadratures must reproduce (self-check of the oracle).
Q0_EXACT = 3.0 ** 0.25
MASS_EXACT = math.sqrt(3.0) * math.pi / 2.0
EXPONENT_BALANCED = 1.0
EXPONENT_POWERLAW = 2.0 / (4.0 - ALPHA)          # 5/6 at sigma = 0.2
LPLUS_BOTTOM = -8.0     # 1 - 4 nu^2 with nu(nu+1) = 15/4: nu = 3/2
LMINUS_BOTTOM = 0.0     # 1 - 4 nu^2 with nu(nu+1) = 3/4:  nu = 1/2


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _finite(out: dict, keys) -> list[str]:
    return [f"{k} missing or not finite ({out.get(k)!r})" for k in keys
            if not isinstance(out.get(k), (int, float))
            or not math.isfinite(out[k])]


# --------------------------------------------------------------------------
# blowup
# --------------------------------------------------------------------------

EXPONENT_TOL = 0.03       # |fitted - paper exponent| over a partial decade
COEFF_RTOL = 0.05         # balanced coefficient against its closed form
LAMBDA_S_RTOL = 0.01      # lambda * s at the last snapshot
MASS_RTOL = 1e-8          # mass at every snapshot against the initial mass


def check_blowup(out: dict, ref: Reference) -> list[str]:
    """One rate run.  ``out`` keys: regime ('balanced' or 'power-law'),
    E0, exponent, coefficient, lam_s_last, mass_rel_max, drift_max,
    drift_abort, truncated, n_snapshots, lower_bound, energy0."""
    keys = ("E0", "exponent", "coefficient", "lam_s_last", "mass_rel_max",
            "drift_max", "drift_abort", "lower_bound", "energy0")
    bad = _finite(out, keys)
    if bad:
        return bad
    regime = out.get("regime")
    if regime == "balanced":
        target = EXPONENT_BALANCED
        coeff = ref.balanced_coefficient(out["E0"])
        if _rel(out["coefficient"], coeff) > COEFF_RTOL:
            bad.append(f"coefficient {out['coefficient']:.6g} vs closed form "
                       f"{coeff:.6g} (rtol {COEFF_RTOL})")
        lam_s = ref.lambda_s_limit(out["E0"])
        if _rel(out["lam_s_last"], lam_s) > LAMBDA_S_RTOL:
            bad.append(f"lambda*s {out['lam_s_last']:.6g} vs closed form "
                       f"{lam_s:.6g} (rtol {LAMBDA_S_RTOL})")
        if not out["energy0"] > 0.0:
            bad.append(f"E(u0) = {out['energy0']:.6g} is not positive")
    elif regime == "power-law":
        target = EXPONENT_POWERLAW
    else:
        return [f"unknown regime {regime!r}"]
    if abs(out["exponent"] - target) > EXPONENT_TOL:
        bad.append(f"exponent {out['exponent']:.6g} vs {target:.6g} "
                   f"(tol {EXPONENT_TOL})")
    if out["truncated"]:
        bad.append("run truncated before the scale floor")
    if not out["drift_max"] < out["drift_abort"]:
        bad.append(f"drift {out['drift_max']:.3e} not below the gate "
                   f"{out['drift_abort']:.1e}")
    if out["mass_rel_max"] > MASS_RTOL:
        bad.append(f"mass drift {out['mass_rel_max']:.3e} > {MASS_RTOL}")
    if out.get("n_snapshots", 0) < 8:
        bad.append(f"only {out.get('n_snapshots')} snapshots")
    if not out["lower_bound"] > 0.0:
        bad.append(f"lower-bound infimum {out['lower_bound']:.6g} not > 0")
    return bad


# --------------------------------------------------------------------------
# tube
# --------------------------------------------------------------------------

PARAM_TOL = 1e-8          # recovered (lambda, b, gamma) against the known
RECON_TOL = 1e-8          # max|reconstruct - u| / max|u|


def _angle(a: float) -> float:
    return abs(math.remainder(a, 2.0 * math.pi))


def check_tube(out: dict) -> list[str]:
    """One decomposition.  ``out`` keys: lam, b, gamma (known state, with
    any constant phase shift already added to gamma), lam_fit, b_fit,
    gamma_fit, recon_defect."""
    bad = _finite(out, ("lam", "b", "gamma", "lam_fit", "b_fit",
                        "gamma_fit", "recon_defect"))
    if bad:
        return bad
    err = max(abs(out["lam_fit"] / out["lam"] - 1.0),
              abs(out["b_fit"] - out["b"]),
              _angle(out["gamma_fit"] - out["gamma"]))
    if err > PARAM_TOL:
        bad.append(f"parameter error {err:.3e} > {PARAM_TOL}")
    if out["recon_defect"] > RECON_TOL:
        bad.append(f"reconstruct defect {out['recon_defect']:.3e} > "
                   f"{RECON_TOL}")
    return bad


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

GROUND_RTOL = 1e-6        # Q(0) and mass at n = 32768 (criterion 1)
OMEGA_RTOL = 1e-5         # omega on the 8192- and 32768-point grids
OMEGA_COARSE_RTOL = 1e-4  # omega on the coarse linops grid
SPECTRUM_TOL = 1e-5       # Poschl-Teller bottoms of L+ and L-
IDENTITY_TOL = 1e-4       # operator identities on the coarse linops grid
BETA_TOL = 1e-3           # bordered beta against the closed form
BETA00_TOL = 1e-4         # beta00 of the balanced expansion
SLOPE_MARGIN = 0.1        # residual slope >= order + 2 - margin
REDUCED_RTOL = 0.01       # lambda * s at the reduced flow's floor


def check_ground(out: dict, ref: Reference) -> list[str]:
    """ground.json: Q0, norms.mass, omega, residuals.elliptic_inf."""
    bad = []
    if _rel(out["Q0"], ref.Q0) > GROUND_RTOL:
        bad.append(f"Q0 {out['Q0']!r} vs {ref.Q0!r}")
    if _rel(out["norms"]["mass"], ref.mass) > GROUND_RTOL:
        bad.append(f"mass {out['norms']['mass']!r} vs {ref.mass!r}")
    if _rel(out["omega"], ref.omega) > OMEGA_RTOL:
        bad.append(f"omega {out['omega']!r} vs {ref.omega!r}")
    if not out["residuals"]["elliptic_inf"] < 1e-9:
        bad.append(f"elliptic residual {out['residuals']['elliptic_inf']!r}")
    return bad


def check_linops(out: dict, beta_rows: list[dict],
                 ref: Reference) -> list[str]:
    """linops.json plus the rows of beta_sweep.csv (as floats)."""
    bad = []
    if _rel(out["omega"], ref.omega) > OMEGA_COARSE_RTOL:
        bad.append(f"omega {out['omega']!r} vs {ref.omega!r}")
    if abs(out["lplus_unconstrained_min"] - LPLUS_BOTTOM) > SPECTRUM_TOL:
        bad.append(f"L+ bottom {out['lplus_unconstrained_min']!r} vs -8")
    if abs(out["lminus_unconstrained_min"] - LMINUS_BOTTOM) > SPECTRUM_TOL:
        bad.append(f"L- bottom {out['lminus_unconstrained_min']!r} vs 0")
    if not out["constrained_min_eig"] > 0.0:
        bad.append(f"constrained minimum {out['constrained_min_eig']!r} "
                   "not > 0")
    worst = max(out["identity_residuals"].values())
    if not worst < IDENTITY_TOL:
        bad.append(f"identity residual {worst!r} >= {IDENTITY_TOL}")
    ratios = sorted(row["C0_over_omega"] for row in beta_rows)
    if ratios != [0.5, 0.75, 1.0, 1.5, 2.0]:
        bad.append(f"beta sweep ratios {ratios}")
    for row in beta_rows:
        closed = ref.beta(row["C0_over_omega"])
        if abs(row["beta_bordered"] - closed) > BETA_TOL:
            bad.append(f"beta({row['C0_over_omega']}) bordered "
                       f"{row['beta_bordered']!r} vs closed form {closed!r}")
    return bad


def check_profile(out: dict, ref: Reference) -> list[str]:
    """profile.json: omega, entries (j, k, beta), order, residual_slope."""
    bad = []
    if _rel(out["omega"], ref.omega) > OMEGA_RTOL:
        bad.append(f"omega {out['omega']!r} vs {ref.omega!r}")
    beta00 = [e["beta"] for e in out["entries"] if (e["j"], e["k"]) == (0, 0)]
    if len(beta00) != 1 or abs(beta00[0]) > BETA00_TOL:
        bad.append(f"balanced beta00 {beta00!r} not within {BETA00_TOL} of 0")
    floor = out["order"] + 2.0 - SLOPE_MARGIN
    if not out["residual_slope"] >= floor:
        bad.append(f"residual slope {out['residual_slope']!r} < {floor}")
    return bad


def check_reduced(out: dict, E0: float, floor: float,
                  ref: Reference) -> list[str]:
    """reduced.json of a balanced run with --E0 E0 down to lambda = floor."""
    bad = []
    if _rel(out["omega"], ref.omega) > OMEGA_RTOL:
        bad.append(f"omega {out['omega']!r} vs {ref.omega!r}")
    if not out["balanced"]:
        bad.append("balanced run not classified as balanced")
    if not out["truncated"] or _rel(out["lambda_final"], floor) > 1e-9:
        bad.append(f"flow did not end at the floor {floor} "
                   f"(lambda_final {out['lambda_final']!r})")
    lam_s = out["lambda_final"] * out["s_final"]
    target = ref.lambda_s_limit(E0)
    if _rel(lam_s, target) > REDUCED_RTOL:
        bad.append(f"lambda*s {lam_s!r} vs closed form {target!r}")
    if not out["ode_residual"] < 1e-8:
        bad.append(f"ODE residual {out['ode_residual']!r}")
    return bad
