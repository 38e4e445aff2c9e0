"""Independent checks of phaselens outputs.

Nothing here imports phaselens.  Every check works on the driver's own copy
of the input (the array it generated) and on the serialized output (the
``to_dict`` document or the CLI's JSON), so a defect in the package's
decision path cannot also hide in its verifier.  Each check returns ``None``
when the output is accepted and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

RANK_RTOL = 1e-8  # looser than the package's 1e-10: only clear deficiency counts
MAGNITUDE_RTOL = 1e-7
CLASS_RTOL = 1e-6
VALUE_RTOL = 1e-9
SLACK_RTOL = 1e-9

PR = "phase_retrieval"
NOT_PR = "not_phase_retrieval"


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0.0
    return rows[keep] / norms[keep, None]


def rank(rows: np.ndarray) -> int:
    """Rank of a set of frame vectors after scaling each to unit length.

    Phase retrieval is invariant under nonzero rescaling of frame vectors, so
    the scale-free rank is the one a witness must satisfy."""
    unit = _unit_rows(np.asarray(rows))
    if unit.shape[0] == 0:
        return 0
    sv = np.linalg.svd(unit, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def bures(x: np.ndarray, y: np.ndarray) -> float:
    """D(x, y) = sqrt(|x|^2 + |y|^2 - 2|<x, y>|), clamped at zero."""
    r = float(np.vdot(x, x).real + np.vdot(y, y).real - 2.0 * abs(np.vdot(y, x)))
    return math.sqrt(max(r, 0.0))


def coords(doc: dict) -> np.ndarray:
    """Dense coordinates from a serialized ``{"coords": [...]}`` vector."""
    out = [complex(e[0], e[1]) if isinstance(e, list) else float(e) for e in doc["coords"]]
    return np.array(out)


def check_failing_subset(matrix: np.ndarray, indices) -> str | None:
    """Both sigma and its complement must leave a rank-deficient span."""
    m, n = matrix.shape
    sigma = sorted(int(i) for i in indices)
    if not sigma or sigma[0] < 1 or sigma[-1] > m or len(set(sigma)) != len(sigma):
        return f"failing subset {sigma} is not a subset of 1..{m}"
    inside = [i - 1 for i in sigma]
    outside = [j for j in range(m) if j + 1 not in sigma]
    r_in, r_out = rank(matrix[inside]), rank(matrix[outside])
    if r_in >= n or r_out >= n:
        return f"failing subset {sigma} rejected: ranks {r_in} and {r_out} of {n}"
    return None


def check_colliding_pair(matrix: np.ndarray, x: np.ndarray, y: np.ndarray) -> str | None:
    """Equal magnitude patterns, and classes a clear distance apart."""
    if x.shape != (matrix.shape[1],) or y.shape != x.shape:
        return "colliding pair has the wrong dimension"
    ax = np.abs(matrix.conj() @ x)
    ay = np.abs(matrix.conj() @ y)
    scale = float(np.linalg.norm(ax))
    if scale == 0.0 or float(np.max(np.abs(ax - ay))) > MAGNITUDE_RTOL * scale:
        return "colliding pair rejected: magnitude patterns differ"
    if bures(x, y) <= CLASS_RTOL * float(np.linalg.norm(x)):
        return "colliding pair rejected: x and y are one class"
    return None


def check_certificate(matrix: np.ndarray, label_pr: bool, doc: dict) -> str | None:
    """Verdict against the construction label, then the witness itself."""
    want = PR if label_pr else NOT_PR
    if doc.get("verdict") != want:
        return f"verdict {doc.get('verdict')} but the frame was built as {want}"
    if label_pr:
        return None
    wit = doc.get("witness") or {}
    if wit.get("type") == "failing_subset":
        return check_failing_subset(matrix, wit["indices"])
    if wit.get("type") == "colliding_pair":
        return check_colliding_pair(matrix, coords(wit["x"]), coords(wit["y"]))
    return f"negative verdict without a witness: {wit!r}"


def check_suite(label_pr: bool, trials: int, doc: dict) -> str | None:
    """A PR frame agrees on every trial; a non-PR frame yields one exemplar."""
    if doc.get("pr_certified") is not label_pr:
        return f"pr_certified {doc.get('pr_certified')} but the frame was built with PR={label_pr}"
    if doc.get("trials") != trials:
        return f"suite reports {doc.get('trials')} trials, asked for {trials}"
    want = 0 if label_pr else 1
    if doc.get("mismatches") != want:
        return f"{doc.get('mismatches')} mismatches, expected {want}"
    return None


def check_dist(matrix: np.ndarray, x: np.ndarray, y: np.ndarray, doc: dict) -> str | None:
    """D and d_phi from closed forms; every inequality slack nonnegative."""
    ax = np.abs(matrix.conj() @ x)
    ay = np.abs(matrix.conj() @ y)
    eigs = np.linalg.eigvalsh(matrix.T @ matrix.conj())
    # every term of the inequality chain is at most sqrt(m B / A) (|x| + |y|)
    scale = math.sqrt(matrix.shape[0] * float(eigs[-1]) / float(eigs[0])) * (
        float(np.linalg.norm(x)) + float(np.linalg.norm(y))
    )
    for name, want in (("D", bures(x, y)), ("d_phi", float(np.max(np.abs(ax - ay))))):
        got = doc.get(name)
        if not isinstance(got, float) or abs(got - want) > VALUE_RTOL * scale:
            return f"{name} {got!r} differs from the closed form {want!r}"
    slacks = doc.get("inequality_slacks", {})
    if len(slacks) != 5:
        return "metric report lacks inequality slacks"
    for key, slack in slacks.items():
        if slack < -SLACK_RTOL * scale:
            return f"inequality {key} violated: slack {slack!r}"
    return None


def check_bounds(matrix: np.ndarray, doc: dict) -> str | None:
    eigs = np.linalg.eigvalsh(matrix.T @ matrix.conj())
    for name, want in (("lower", float(eigs[0])), ("upper", float(eigs[-1]))):
        got = doc.get(name)
        if not isinstance(got, float) or abs(got - want) > VALUE_RTOL * max(1.0, abs(want)):
            return f"frame bound {name} {got!r}, expected {want!r}"
    return None


def check_verdicts(expected: dict, doc: dict) -> str | None:
    for topology, want in expected.items():
        got = (doc.get(topology) or {}).get("verdict")
        if got != want:
            return f"{topology} verdict {got}, expected {want}"
    return None


def check_repro(doc: dict) -> str | None:
    if doc.get("pass") is not True or not doc.get("checks"):
        failed = [c.get("check") for c in doc.get("checks", []) if not c.get("pass")]
        return f"repro scenario {doc.get('scenario')} failed checks {failed}"
    return None


def self_check() -> list:
    """Fabricated wrong witnesses that the oracle must reject.

    Returns the list of fabrications that were wrongly accepted (empty when
    the oracle works)."""
    rng = np.random.default_rng(0)
    full_spark = rng.standard_normal((7, 4))
    planted = full_spark.copy()
    planted[:4, 3] = 0.0  # rows 1..4 in one hyperplane, complement 5..7 too small
    x = rng.standard_normal(4)
    wrong = []
    if check_failing_subset(full_spark, [1, 2, 3]) is None:
        wrong.append("failing subset on a full-spark frame")
    if check_certificate(full_spark, False, {
        "verdict": NOT_PR,
        "witness": {"type": "failing_subset", "indices": [1, 2, 3]},
    }) is None:
        wrong.append("negative certificate on a full-spark frame")
    if check_colliding_pair(full_spark, x, x + 0.1 * rng.standard_normal(4)) is None:
        wrong.append("pair with different magnitudes")
    if check_colliding_pair(full_spark, x, -x) is None:
        wrong.append("pair of one class")
    if check_failing_subset(planted, [1, 2, 3, 4]) is not None:
        wrong.append("true failing subset rejected")
    return wrong
