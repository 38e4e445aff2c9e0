"""Quotient-space metrics: Bures-Wasserstein D, the sup-min metric d_Phi
(sup over the frame of the per-index phase minimum), and the minimax variant
(one phase for the whole frame: min over the phase of the sup over the frame),
plus the inequality report tying them together and the sign-pattern
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
    _row_scale,
    analysis_magnitudes,
    coefficients,
    frame_bounds,
)
from .vectors import DenseVector, QuotientPoint, as_rep, inner_product

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
    points: int = 64,
    return_grid_deviation: bool = False,
):
    """Direct evaluation of sup_j min_theta |<x - e^{i theta} y, phi_j>|.

    The per-index phase minimum is taken analytically (| |a|-|b| | in the
    complex case, min(|a-b|, |a+b|) for the two real phases) and cross-checked
    on a theta grid; serves as the independent oracle for ``d_phi``.
    """
    if points < 2:
        raise IncompatibleVector("the theta grid needs >= 2 points")
    a = coefficients(frame, x)
    b = coefficients(frame, y)
    real_case = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    if real_case:
        per_index = np.minimum(np.abs(a - b), np.abs(a + b))
        thetas = np.array([0.0, math.pi])
    else:
        per_index = np.abs(np.abs(a) - np.abs(b))
        thetas = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    phases = np.exp(1j * thetas) if not real_case else np.array([1.0, -1.0])
    grid_min = np.min(np.abs(a[:, None] - phases[None, :] * b[:, None]), axis=1)
    value = float(np.max(per_index))
    deviation = float(np.max(np.abs(grid_min - per_index)))
    if return_grid_deviation:
        return value, deviation
    return value


@dataclass(frozen=True)
class FrakResult:
    """Minimax distance value and the phase attaining it."""

    value: float
    theta_star: float


def _envelope_minima(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A finite set of phases, reduced mod 2 pi, that contains a minimizer of
    theta -> max_j |a_j - e^{i theta} b_j|.

    |a_j - e^{i theta} b_j|^2 = s_j - 2 Re(z_j e^{i theta}) with
    s_j = |a_j|^2 + |b_j|^2 and z_j = conj(a_j) b_j, so the squared sup is the
    upper envelope of m sinusoids.  Its minimum lies at the minimum of one of
    them (theta = -arg z_j), where two of them cross
    (2 Re(w e^{i theta}) = s_j - s_k with w = z_j - z_k), or anywhere when the
    envelope is constant (theta = 0).
    """
    s = np.abs(a) ** 2 + np.abs(b) ** 2
    z = np.conj(a) * b
    j, k = np.triu_indices(z.size, 1)
    w = z[j] - z[k]
    # w = 0 (0/0, x/0) or subnormal (overflow): no crossing; a nan is dropped
    # below, and +-inf clipped to +-1 is only one more candidate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        turn = np.arccos(np.clip((s[j] - s[k]) / (2.0 * np.abs(w)), -1.0, 1.0))
    thetas = np.concatenate(([0.0], -np.angle(z), turn - np.angle(w), -turn - np.angle(w)))
    return np.mod(thetas[np.isfinite(thetas)], 2.0 * math.pi)


def frak_distance(frame: ExplicitFrame, x, y) -> FrakResult:
    """min_theta sup_j |<x - e^{i theta} y, phi_j>| over a finite frame: one
    phase for every j, unlike d_Phi, which minimizes per index.

    The minimum is exact: it is taken over a finite set of phases that
    contains a minimizer, {0, pi} on the real field and the candidates of
    ``_envelope_minima`` on the complex one.  The computation is symmetrized
    (argument order canonicalized) so that swapping x and y returns
    bit-identical values.
    """
    if isinstance(frame, PairwiseSumFrame):
        raise IncompatibleVector("minimax distance over an infinite frame is not supported")
    a = coefficients(frame, x)
    b = coefficients(frame, y)
    swapped = False
    if np.asarray(b).tobytes() < np.asarray(a).tobytes():
        a, b = b, a
        swapped = True
    if frame.field == REAL and not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        thetas = np.array([0.0, math.pi])
        phases = np.array([1.0, -1.0])
    else:
        thetas = _envelope_minima(a, b)
        phases = np.exp(1j * thetas)
    # sup over the frame one row at a time: no (m, candidates) temporary
    values = np.abs(a[0] - phases * b[0])
    for a_j, b_j in zip(a[1:], b[1:]):
        np.maximum(values, np.abs(a_j - phases * b_j), out=values)
    k = int(np.argmin(values))
    theta = float(thetas[k])
    if swapped:
        theta = (2.0 * math.pi - theta) % (2.0 * math.pi)
    return FrakResult(value=float(values[k]), theta_star=theta)


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
        }


def inequality_report(frame: ExplicitFrame, x, y) -> MetricReport:
    """Compute D, d_Phi, the minimax distance and the slack of each inequality
    in the chain:

        d_Phi <= sqrt(B) D,   minimax <= sqrt(B) D,   D <= sqrt(m/A) minimax,
        d_Phi <= |alpha_x - alpha_y|_2 <= sqrt(m) d_Phi.
    """
    bounds = frame_bounds(frame)  # raises NotAFrameError when not spanning
    d_val = bures_distance(x, y)
    dphi_val = d_phi(frame, x, y)
    frak = frak_distance(frame, x, y)
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
    )


# Pattern rows solved per block: bounds the (targets, patterns, m) temporaries
# of one realizer call, whatever the number of targets.
_REALIZE_BLOCK_ROWS = 4096


def realize_from_magnitudes(
    frame: ExplicitFrame,
    target,
    sign_cap: int = config.DEFAULT_SIGN_CAP,
) -> Optional[QuotientPoint] | list[Optional[QuotientPoint]]:
    """Invert a magnitude pattern over a real spanning frame, if possible.

    Enumerates sign patterns (first sign fixed +1, binary counting order) and
    solves <y, phi_j> = eps_j target_j in least squares; the first pattern
    whose residual is within tolerance wins, so results are deterministic.
    The system is solved on unit rows (row j and target_j divided by
    |phi_j|), which has the same exact solutions, so the tolerance does not
    depend on how a frame vector is scaled.

    A 1-D target returns a QuotientPoint, or None when no signing of it is
    realizable.  A (P, m) block of targets returns a list of P such results,
    each equal to the result of its own 1-D call.
    """
    if frame.field != REAL:
        raise FieldError("magnitude realization requires a real frame")
    _require_spanning(frame)
    targets = np.asarray(target, dtype=np.float64)
    m = frame.m
    if targets.ndim not in (1, 2) or targets.shape[-1] != m:
        raise IncompatibleVector(f"target length {targets.shape} vs frame count {m}")
    if np.any(targets < 0):
        raise IncompatibleVector("magnitude targets must be nonnegative")
    if m > sign_cap:
        raise EnumerationCapExceeded(f"m={m} exceeds sign cap {sign_cap}")
    block = targets.reshape(-1, m)
    scale = _row_scale(frame.matrix)
    a = frame.matrix / scale[:, None]
    unit = block / scale
    tols = config.REALIZE_RTOL * np.linalg.norm(unit, axis=1)
    zero = ~block.any(axis=1)
    signs = sign_patterns(m)
    pinv_t = np.linalg.pinv(a).T
    step = max(1, _REALIZE_BLOCK_ROWS // signs.shape[0])
    results = []
    for lo in range(0, block.shape[0], step):
        signed = signs * unit[lo:lo + step, None, :]  # (p, patterns, m)
        ys = signed @ pinv_t
        fit = ys @ a.T
        fit -= signed
        fit *= fit
        hits = np.sqrt(fit.sum(axis=2)) <= tols[lo:lo + step, None]
        first = hits.argmax(axis=1)
        found = hits[np.arange(first.size), first]
        for i, (k, ok, nil) in enumerate(zip(first, found, zero[lo:lo + step])):
            if nil:
                results.append(QuotientPoint(DenseVector(np.zeros(frame.dim))))
            elif ok:
                results.append(QuotientPoint(DenseVector(ys[i, k])))
            else:
                results.append(None)
    return results if targets.ndim == 2 else results[0]
