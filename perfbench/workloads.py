"""Seeded inputs, the timed operation and its oracle check, per workload.

Every input is generated here from the workload seed and reaches phaselens
only as a frame file (loaded through ``phaselens.io.load_frame``), a vector or
a CLI argument.  Inputs come in blocks of fixed composition whose order is
shuffled by the seed, so any prefix of the operation stream has nearly the
same mix and the mix itself does not depend on the seed.  Each case carries
the label its construction implies (phase retrieval or not), which the
oracle compares against.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

import oracle

@dataclass
class Case:
    kind: str
    seed: int
    matrix: np.ndarray = None  # the driver's own copy of the frame
    label_pr: bool = True
    known_defect: bool = False  # a PR frame the package is known to refute
    frame: object = None  # the frame as phaselens loaded it
    argv: list = None
    expect: dict = field(default_factory=dict)


def write_frame(path, matrix: np.ndarray) -> str:
    """Write a frame file in the package's documented JSON format."""
    if np.iscomplexobj(matrix):
        doc = {
            "field": "complex",
            "dim": matrix.shape[1],
            "vectors": [[[z.real, z.imag] for z in row] for row in matrix.tolist()],
        }
    else:
        doc = {"field": "real", "dim": matrix.shape[1], "vectors": matrix.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def vector_arg(v: np.ndarray) -> str:
    if np.iscomplexobj(v):
        return json.dumps([[z.real, z.imag] for z in v.tolist()])
    return json.dumps(v.tolist())


def gaussian(rng, m, n) -> np.ndarray:
    return rng.standard_normal((m, n))


def planted(rng, m, n) -> np.ndarray:
    """Not PR: m-n+1 vectors in one hyperplane, so they and the n-1 others
    both fail to span."""
    normal = rng.standard_normal(n)
    normal /= np.linalg.norm(normal)
    inside = rng.standard_normal((m - n + 1, n))
    inside -= np.outer(inside @ normal, normal)
    rows = np.vstack([inside, rng.standard_normal((n - 1, n))])
    return rows[rng.permutation(m)]


def rescaled(rng, m, n) -> np.ndarray:
    """PR: a Gaussian frame with rows scaled by powers of ten from 10^-12 to 1.

    The m exponents are evenly spaced over [-12, 0], in random order, so
    every frame spans the whole range of scales.  Every such frame trips the
    known scale defect (10,600 of 10,600 with n=5, m=10 in the first
    benchmarked version, against about 97% for exponents drawn from
    U(-12, 0)), so the number of failed inputs does not depend on the seed."""
    exponents = rng.permutation(m) * (12.0 / (m - 1)) - 12.0
    return gaussian(rng, m, n) * 10.0 ** exponents[:, None]


def _frames(pl, rng, blocks, block_spec, workdir):
    """Cases from ``blocks`` shuffled copies of ``block_spec``, a list of
    (kind, m, n, make, label_pr) rows; each frame goes through a file."""
    cases = []
    for b in range(blocks):
        for row in rng.permutation(len(block_spec)):
            kind, m, n, make, label_pr = block_spec[row]
            matrix = make(rng, m, n)
            path = write_frame(workdir / f"f{len(cases)}.json", matrix)
            cases.append(Case(
                kind=kind,
                seed=int(rng.integers(2**31)),
                matrix=matrix,
                label_pr=label_pr,
                known_defect=kind == "rescaled",
                frame=pl.io.load_frame(path),
            ))
    return cases


# --- certify-redundant / certify-critical ---------------------------------


def build_certify_redundant(pl, rng, blocks, workdir):
    spec = []
    for n in (3, 4):
        for m in (11, 12, 13):
            spec += [("gaussian", m, n, gaussian, True)] * 7
            spec += [("planted", m, n, planted, False)] * 3
    return _frames(pl, rng, blocks, spec, workdir)


def build_certify_critical(pl, rng, blocks, workdir):
    # the copy counts put the median inside the n=7 undercomplete (sign
    # search) cluster and p90 inside the n=7, m=2n enumeration cluster
    spec = []
    for n in (5, 6, 7):
        spec += [("undercomplete", 2 * n - 2, n, gaussian, False)] * (4 if n == 7 else 3)
        spec += [("gaussian", 2 * n - 1, n, gaussian, True)] * 3
        spec += [("gaussian", 2 * n, n, gaussian, True)] * (6 if n == 7 else 3)
        spec += [("planted", 2 * n, n, planted, False)] * 3
    spec += [("rescaled", 10, 5, rescaled, True)] * 4
    return _frames(pl, rng, blocks, spec, workdir)


def op_certify(pl, case):
    return pl.certify_phase_retrieval(case.frame, seed=case.seed).to_dict()


def check_certify(case, doc):
    return oracle.check_certificate(case.matrix, case.label_pr, doc)


# --- suite -----------------------------------------------------------------

SUITE_TRIALS = 2
R2_FIXTURE = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
R2_ONB = np.eye(2)


def build_suite(pl, rng, blocks, workdir):
    spec = [
        ("r2_fixture", 3, 2, lambda rng, m, n: R2_FIXTURE.copy(), True),
        ("r2_fixture", 3, 2, lambda rng, m, n: R2_FIXTURE.copy(), True),
        *[("gaussian", 5, 3, gaussian, True)] * 3,
        *[("gaussian", 7, 4, gaussian, True)] * 3,
        ("r2_onb", 2, 2, lambda rng, m, n: R2_ONB.copy(), False),
        ("undercomplete", 6, 4, gaussian, False),
    ]
    return _frames(pl, rng, blocks, spec, workdir)


def op_suite(pl, case):
    return pl.finite_dim_coincidence_suite(case.frame, trials=SUITE_TRIALS, seed=case.seed).to_dict()


def check_suite(case, doc):
    return oracle.check_suite(case.label_pr, SUITE_TRIALS, doc)


# --- cli-reports -------------------------------------------------------------

CONSISTENT = "consistent_with_convergence"
SCALED_BASIS_VERDICTS = {
    # Example 4.3: k e_k converges in the initial topology only; d_phi grows
    1.0: {"tau_phi": CONSISTENT, "tau_w": "divergence_witnessed", "d_phi": "unbounded"},
    # Remark 4.7(i): e_k converges weakly and initially, d_phi stays at one
    0.0: {"tau_phi": CONSISTENT, "tau_w": CONSISTENT, "d_phi": "divergence_witnessed"},
}
REPRO_SCENARIOS = ("example_3_4", "example_4_3", "remark_4_7_i", "remark_4_7_ii")


def _complex_gaussian(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def build_cli_reports(pl, rng, blocks, workdir):
    """``blocks`` rotations of the CLI commands, each on fresh frames and
    vectors: metric reports dominate the count, sequence-space convergence
    diagnostics the tail."""
    pairwise = workdir / "pairwise_sum_50.json"
    pairwise.write_text(json.dumps({"structured": "pairwise_sum", "truncation": 50}))
    r2 = write_frame(workdir / "r2_fixture.json", R2_FIXTURE)
    pl.io.load_frame(str(pairwise))
    pl.io.load_frame(r2)
    cases = []
    for b in range(blocks):
        rotation = []
        # copy counts put the median inside the (16, 4) metric reports and
        # p90 inside the sequence-space convergence diagnostics
        for m, n, make, copies in ((4, 2, _complex_gaussian, 7), (16, 4, _complex_gaussian, 6),
                                   (64, 8, _complex_gaussian, 3), (6, 3, gaussian, 2)):
            matrix = make(rng, m, n)
            path = write_frame(workdir / f"b{b}_{m}x{n}.json", matrix)
            pl.io.load_frame(path)
            for _ in range(copies):
                x, y = make(rng, 2, n)
                rotation.append(Case("dist", 0, matrix, argv=["dist", path, vector_arg(x), vector_arg(y)],
                                     expect={"x": x, "y": y}))
        rotation.append(Case("bounds", 0, matrix, argv=["bounds", path]))  # the real frame above
        for power, verdicts in [*SCALED_BASIS_VERDICTS.items()] * 2:
            spec = json.dumps({"type": "scaled_basis", "length": 45, "power": power})
            rotation.append(Case("converge", 0, argv=["--prefix", "45", "converge", str(pairwise), spec,
                                                      '{"support": []}'], expect={"verdicts": verdicts}))
        limit, direction = rng.standard_normal(2), rng.standard_normal(2)
        spec = json.dumps({"type": "perturbed_limit", "limit": limit.tolist(),
                           "direction": direction.tolist(), "length": 200})
        rotation.append(Case("converge", 0, argv=["converge", r2, spec, vector_arg(limit)],
                             expect={"verdicts": dict.fromkeys(("tau_phi", "tau_w", "d_phi"), CONSISTENT)}))
        rotation += [Case("repro", 0, argv=["repro", name]) for name in REPRO_SCENARIOS]
        for row in rng.permutation(len(rotation)):
            case = rotation[row]
            case.seed = int(rng.integers(2**31))
            case.argv = ["--format", "json", "--seed", str(case.seed)] + case.argv
            cases.append(case)
    return cases


def op_cli(pl, case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pl.cli.main(case.argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_cli(case, result):
    if result["exit"] != 0:
        return f"exit code {result['exit']}: {result['stderr'].strip()}"
    try:
        doc = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if case.kind == "dist":
        return oracle.check_dist(case.matrix, case.expect["x"], case.expect["y"], doc)
    if case.kind == "bounds":
        return oracle.check_bounds(case.matrix, doc)
    if case.kind == "converge":
        return oracle.check_verdicts(case.expect["verdicts"], doc)
    return oracle.check_repro(doc)


@dataclass(frozen=True)
class Workload:
    build: object
    op: object
    check: object
    # input blocks per run: one pass over them fills about 65% of a 25 s run
    # of the first benchmarked version, so it still fits when the machine is
    # a quarter slower
    blocks: int
    trace_ops: int  # ops in the digest prefix and in the traced phase


WORKLOADS = {
    "certify-redundant": Workload(build_certify_redundant, op_certify, check_certify, 5, 60),
    "certify-critical": Workload(build_certify_critical, op_certify, check_certify, 5, 44),
    "suite": Workload(build_suite, op_suite, check_suite, 28, 20),
    "cli-reports": Workload(build_cli_reports, op_cli, check_cli, 16, 28),
}
