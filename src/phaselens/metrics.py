"""Quotient-space metrics: Bures-Wasserstein D, the sup-min metric d_Phi, and
the minimax variant (min over the phase circle first, then sup over the
frame), plus the inequality report tying them together and the sign-pattern
realizer that inverts magnitude patterns for real frames.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import config
from .errors import EnumerationCapExceeded, FieldError, IncompatibleVector
from .frames import (
    REAL,
    ExplicitFrame,
    Frame,
    FrameBounds,
    PairwiseSumFrame,
    _require_spanning,
    analysis_magnitudes,
    coefficients,
    frame_bounds,
)
from .vectors import DenseVector, QuotientPoint, as_rep, inner_product

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _bures(norm_x: float, norm_y: float, overlap: float) -> float:
    """sqrt(|x|^2 + |y|^2 - 2|<x,y>|) from |x|, |y| and |<x,y>|; radicands within
    rounding noise of zero (1e-13 relative, either sign) are clamped to zero so
    that class-equal arguments give an exact zero."""
    scale = norm_x ** 2 + norm_y ** 2
    r = scale - 2.0 * overlap
    if r <= 1e-13 * scale:
        return 0.0
    return math.sqrt(r)


def bures_distance_arrays(x: np.ndarray, y: np.ndarray) -> float:
    """D on raw coordinate arrays: sqrt(|x|^2 + |y|^2 - 2|<x,y>|)."""
    return _bures(float(np.linalg.norm(x)), float(np.linalg.norm(y)), abs(np.vdot(y, x)))


def bures_distance(x, y) -> float:
    """D(x^, y^) = min over unimodular lambda of ||x - lambda y||, in closed form."""
    x, y = as_rep(x), as_rep(y)
    return _bures(x.norm(), y.norm(), abs(inner_product(x, y)))


def sign_patterns(m: int) -> np.ndarray:
    """Every sign pattern of length m with the first sign +1 (eps and -eps give
    class-equal solutions), one per row, in binary counting order."""
    tails = np.array(list(itertools.product((1.0, -1.0), repeat=m - 1)))
    return np.hstack([np.ones((tails.shape[0], 1)), tails])


def d_phi(frame: Frame, x, y) -> float:
    """sup_j | |<x,phi_j>| - |<y,phi_j>| |.

    For a pairwise-sum frame the sup runs over the truncated index set; it is
    exact whenever both vectors are supported within the truncation.
    """
    ax = analysis_magnitudes(frame, x)
    ay = analysis_magnitudes(frame, y)
    return float(np.max(np.abs(ax - ay)))


def d_phi_definitional(
    frame: Frame,
    x,
    y,
    grid_size: int = 64,
    return_grid_deviation: bool = False,
):
    """Direct evaluation of sup_j min_theta |<x - e^{i theta} y, phi_j>|.

    The per-index phase minimum is taken analytically (| |a|-|b| | in the
    complex case, min(|a-b|, |a+b|) for the two real phases) and cross-checked
    on a theta grid; serves as the independent oracle for ``d_phi``.
    """
    if grid_size < 2:
        raise IncompatibleVector("grid size must be >= 2")
    a = coefficients(frame, x)
    b = coefficients(frame, y)
    real_case = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    if real_case:
        per_index = np.minimum(np.abs(a - b), np.abs(a + b))
        thetas = np.array([0.0, math.pi])
    else:
        per_index = np.abs(np.abs(a) - np.abs(b))
        thetas = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    phases = np.exp(1j * thetas) if not real_case else np.array([1.0, -1.0])
    grid_min = np.min(np.abs(a[:, None] - phases[None, :] * b[:, None]), axis=1)
    value = float(np.max(per_index))
    deviation = float(np.max(np.abs(grid_min - per_index)))
    if return_grid_deviation:
        return value, deviation
    return value


@dataclass(frozen=True)
class FrakResult:
    """Minimax distance value, the phase attaining it (within tolerance), and
    the Lipschitz error bound of the grid/golden-section minimization."""

    value: float
    theta_star: float
    error_bound: float


def frak_distance(
    frame: ExplicitFrame,
    x,
    y,
    grid_size: int = config.DEFAULT_GRID_SIZE,
) -> FrakResult:
    """min_theta sup_j |<x - e^{i theta} y, phi_j>| over a finite frame.

    Real field: the phase set is exactly {0, pi}.  Complex field: a uniform
    theta grid is refined by golden-section search around the best bracket;
    |g(t) - g(t')| <= |y| max_j|phi_j| |t - t'| bounds the residual error.
    The computation is symmetrized (argument order canonicalized) so that
    swapping x and y returns bit-identical values.
    """
    if isinstance(frame, PairwiseSumFrame):
        raise IncompatibleVector("minimax distance over an infinite frame is not supported")
    a = coefficients(frame, x)
    b = coefficients(frame, y)
    swapped = False
    if np.asarray(b).tobytes() < np.asarray(a).tobytes():
        a, b = b, a
        swapped = True
    # the Lipschitz constant uses the norm of the vector carrying the phase
    y_norm = as_rep(x).norm() if swapped else as_rep(y).norm()
    lipschitz = y_norm * float(np.max(np.linalg.norm(frame.matrix, axis=1)))

    if frame.field == REAL and not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        g0 = float(np.max(np.abs(a - b)))
        g1 = float(np.max(np.abs(a + b)))
        if g1 < g0:
            value, theta = g1, math.pi
        else:
            value, theta = g0, 0.0
        if swapped and theta != 0.0:
            theta = (2.0 * math.pi - theta) % (2.0 * math.pi)
        return FrakResult(value=value, theta_star=theta, error_bound=0.0)

    if grid_size < 4:
        raise IncompatibleVector("grid size must be >= 4")

    def g(theta: float) -> float:
        return float(np.max(np.abs(a - np.exp(1j * theta) * b)))

    thetas = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    values = np.max(
        np.abs(a[:, None] - np.exp(1j * thetas)[None, :] * b[:, None]), axis=0
    )
    k0 = int(np.argmin(values))
    best_val = float(values[k0])
    best_theta = float(thetas[k0])
    h = 2.0 * math.pi / grid_size
    lo, hi = thetas[k0] - h, thetas[k0] + h

    # golden-section refinement; keep the best sample seen so the returned
    # value never exceeds any evaluated g
    p = hi - GOLDEN * (hi - lo)
    q = lo + GOLDEN * (hi - lo)
    gp, gq = g(p), g(q)
    while hi - lo > config.DEFAULT_THETA_WIDTH:
        if gp <= gq:
            hi, q, gq = q, p, gp
            p = hi - GOLDEN * (hi - lo)
            gp = g(p)
        else:
            lo, p, gp = p, q, gq
            q = lo + GOLDEN * (hi - lo)
            gq = g(q)
        cand, cand_t = (gp, p) if gp <= gq else (gq, q)
        if cand < best_val:
            best_val, best_theta = cand, cand_t
    theta = best_theta % (2.0 * math.pi)
    if swapped:
        theta = (2.0 * math.pi - theta) % (2.0 * math.pi)
    return FrakResult(
        value=best_val,
        theta_star=theta,
        error_bound=lipschitz * config.DEFAULT_THETA_WIDTH,
    )


@dataclass(frozen=True)
class MetricReport:
    """All three metrics on one pair, with the inequality slacks relating
    them; every slack is nonnegative up to numerical tolerance when the
    underlying inequalities hold."""

    D: float
    d_phi: float
    frak_D: float
    theta_star: float
    alpha_diff_norm: float
    bounds_used: FrameBounds
    m: int
    inequality_slacks: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": config.SCHEMA_VERSION,
            "D": self.D,
            "d_phi": self.d_phi,
            "frak_D": self.frak_D,
            "theta_star": self.theta_star,
            "alpha_diff_norm": self.alpha_diff_norm,
            "frame_bounds": {"lower": self.bounds_used.lower, "upper": self.bounds_used.upper},
            "m": self.m,
            "inequality_slacks": dict(self.inequality_slacks),
            "parameters": dict(self.parameters),
        }


def inequality_report(
    frame: ExplicitFrame,
    x,
    y,
    grid_size: int = config.DEFAULT_GRID_SIZE,
) -> MetricReport:
    """Compute D, d_Phi, the minimax distance and the slack of each inequality
    in the chain:

        d_Phi <= sqrt(B) D,   minimax <= sqrt(B) D,   D <= sqrt(m/A) minimax,
        d_Phi <= |alpha_x - alpha_y|_2 <= sqrt(m) d_Phi.
    """
    bounds = frame_bounds(frame)  # raises NotAFrameError when not spanning
    d_val = bures_distance(x, y)
    dphi_val = d_phi(frame, x, y)
    frak = frak_distance(frame, x, y, grid_size=grid_size)
    alpha_diff = float(
        np.linalg.norm(analysis_magnitudes(frame, x) - analysis_magnitudes(frame, y))
    )
    m = frame.m
    slacks = {
        "d_phi_le_sqrtB_D": math.sqrt(bounds.upper) * d_val - dphi_val,
        "frak_le_sqrtB_D": math.sqrt(bounds.upper) * d_val - frak.value,
        "D_le_sqrt_m_over_A_frak": math.sqrt(m / bounds.lower) * frak.value - d_val,
        "d_phi_le_alpha_diff": alpha_diff - dphi_val,
        "alpha_diff_le_sqrt_m_d_phi": math.sqrt(m) * dphi_val - alpha_diff,
    }
    return MetricReport(
        D=d_val,
        d_phi=dphi_val,
        frak_D=frak.value,
        theta_star=frak.theta_star,
        alpha_diff_norm=alpha_diff,
        bounds_used=bounds,
        m=m,
        inequality_slacks=slacks,
        parameters={"grid_size": grid_size, "theta_width": config.DEFAULT_THETA_WIDTH},
    )


def realize_from_magnitudes(
    frame: ExplicitFrame,
    target,
    sign_cap: int = config.DEFAULT_SIGN_CAP,
) -> Optional[QuotientPoint]:
    """Invert a magnitude pattern over a real spanning frame, if possible.

    Enumerates sign patterns (first sign fixed +1, binary counting order) and
    solves <y, phi_j> = eps_j target_j in least squares; the first pattern
    whose residual is within tolerance wins, so results are deterministic.
    Returns None when no signing of the target is realizable.
    """
    if frame.field != REAL:
        raise FieldError("magnitude realization requires a real frame")
    _require_spanning(frame)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (frame.m,):
        raise IncompatibleVector(f"target length {target.shape} vs frame count {frame.m}")
    if np.any(target < 0):
        raise IncompatibleVector("magnitude targets must be nonnegative")
    if frame.m > sign_cap:
        raise EnumerationCapExceeded(f"m={frame.m} exceeds sign cap {sign_cap}")
    if float(np.linalg.norm(target)) == 0.0:
        return QuotientPoint(DenseVector(np.zeros(frame.dim)))
    a = frame.matrix
    targets = sign_patterns(frame.m) * target
    ys = targets @ np.linalg.pinv(a).T
    residuals = np.linalg.norm(ys @ a.T - targets, axis=1)
    hits = np.flatnonzero(residuals <= config.REALIZE_RTOL * np.linalg.norm(target))
    if hits.size == 0:
        return None
    return QuotientPoint(DenseVector(ys[hits[0]]))
