#!/usr/bin/env python3
"""phaselens benchmark: one closed-loop caller, one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload certify-redundant --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run generates its inputs from the seed, times each call into the public
API from outside the package for ``--seconds`` seconds of busy time, checks
every output with the oracle in ``oracle.py`` and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the same run is followed
by a traced replay of the digest prefix, and the metrics are the per-layer
ones.  The line before it is a ``{"record": ...}`` object with the
environment, the output digest and the failure details.  See README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

HELD_OUT_SEED = 20240811  # kept out of tuning; for checking claims only
SETUP_PROBES = 8  # fresh-process set-ups timed in each run, besides the run's own
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
MAX_REPORTED_FAILURES = 5
WORKLOAD_NAMES = ("certify-redundant", "certify-critical", "suite", "cli-reports")


def setup(name: str, seed: int, blocks: int | None = None):
    """Import phaselens, generate the inputs and round-trip them through
    frame files.  Returns (cases, seconds, modules)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import phaselens
    import phaselens.cli  # noqa: F401  (the cli-reports entry point; also traced)

    if not Path(phaselens.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"phaselens imported from {phaselens.__file__}, not from {SRC}")
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(name.encode())])
    cases = wl.build(phaselens, rng, wl.blocks if blocks is None else blocks, workdir)
    return cases, time.perf_counter() - start, (phaselens, workloads)


def run_ops(pl, wl, cases, seconds, min_ops, keep, checked, max_ops=None):
    """Closed loop over the cases, for ``seconds`` of busy time and at least
    ``min_ops`` ops, or for exactly ``max_ops`` ops.  Returns the latencies
    (s) and the digest of the first ``keep`` outputs.

    ``checked`` maps a case index to (hash of its first canonical output,
    problem or None); it is shared between phases, so a later call on the
    same input that returns another output marks the input failed."""
    latencies = []
    prefix = hashlib.sha256()
    busy, i = 0.0, 0
    while (i < max_ops) if max_ops is not None else (busy < seconds or i < min_ops):
        k = i % len(cases)
        case = cases[k]
        start = time.perf_counter()
        try:
            out = wl.op(pl, case)
        except Exception as exc:  # any exception is a failed op, counted below
            out = {"exception": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - start
        latencies.append(dt)
        busy += dt
        canon = json.dumps(out, sort_keys=True, separators=(",", ":"), default=repr).encode()
        if i < keep:
            prefix.update(canon + b"\n")
        fingerprint = hashlib.sha256(canon).digest()
        if k not in checked:
            problem = out["exception"] if "exception" in out else wl.check(case, out)
            checked[k] = (fingerprint, problem)
        elif checked[k][0] != fingerprint and checked[k][1] is None:
            checked[k] = (checked[k][0], "output differs from an earlier run of the same input")
        i += 1
    return latencies, prefix.hexdigest()


def probe_setups(name: str, seed: int, count: int) -> list:
    """Set-up times of ``count`` fresh processes (import is cold in each)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        1 for path in SRC.rglob("*.py") for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_nonblank_lines": src_lines,
    }


def benchmark(name, seed, seconds, trace, tiny=False) -> dict:
    cases, setup_s, (pl, workloads) = setup(name, seed, blocks=1 if tiny else None)
    import numpy as np

    import oracle
    import tracer

    wl = workloads.WORKLOADS[name]
    if wrong := oracle.self_check():
        raise SystemExit(f"oracle self-check accepted fabricated witnesses: {wrong}")
    trace_ops, min_ops, probes = (2, 4, 1) if tiny else (wl.trace_ops, MIN_OPS, SETUP_PROBES)
    if tiny:
        cases = cases[:min_ops]
    # every case runs at least once, so the inputs checked, and with them
    # attempted and failed, depend on the seed and the code but not on speed
    checked = {}
    lat, untraced_digest = run_ops(pl, wl, cases, seconds, max(min_ops, trace_ops, len(cases)),
                                   trace_ops, checked)
    record = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "samples": len(lat),
        "digest": untraced_digest,
        "digest_ops": trace_ops,
    }
    if trace:
        # a warm untraced replay of the digest prefix is the base of the
        # tracing overhead; the first pass above also paid one-time costs
        w_lat, _ = run_ops(pl, wl, cases, 0.0, 0, 0, checked, max_ops=trace_ops)
        layers = tracer.Tracer()
        layers.install()
        try:
            t_lat, traced_digest = run_ops(pl, wl, cases, 0.0, 0, trace_ops, checked, max_ops=trace_ops)
        finally:
            layers.uninstall()
        record["traced_digest"] = traced_digest
        record["absent_layers"] = layers.absent
        ops = len(t_lat)
        metrics = {}
        for layer in tracer.LAYERS:
            metrics[f"{layer}.calls"] = {"value": layers.calls[layer], "unit": "count"}
            metrics[f"{layer}.self_ms"] = {"value": layers.self_ns[layer] / 1e6, "unit": "ms"}
        for metric, layer in (("certify.rank_checks_per_op", "certify._subset_rank"),
                              ("metrics.realize_per_op", "metrics.realize_from_magnitudes"),
                              ("vectors.inner_product_per_op", "vectors.inner_product")):
            metrics[metric] = {"value": layers.calls[layer] / ops, "unit": "calls/op"}
        metrics["trace.overhead_share"] = {
            "value": 1.0 - sum(w_lat) / sum(t_lat), "unit": "share"}
    else:
        setup_samples = [setup_s] + probe_setups(name, seed, probes)
        record["setup_samples_s"] = setup_samples
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    attempted = len(checked)
    all_failures = [(k, cases[k].kind, cases[k].known_defect, why)
                    for k, (_, why) in sorted(checked.items()) if why is not None]
    if not trace:
        metrics["ok_share"] = {"value": 1.0 - len(all_failures) / attempted, "unit": "share"}
    unexpected = [f for f in all_failures if not f[2]]
    digests_agree = record.get("traced_digest", untraced_digest) == untraced_digest
    record.update({
        "fail_share": len(all_failures) / attempted,
        "failed_known_defect": len(all_failures) - len(unexpected),
        "failures": [{"case": k, "kind": kind, "known_defect": known, "reason": why}
                     for k, kind, known, why in all_failures[:MAX_REPORTED_FAILURES]],
        "env": environment(np),
    })
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        # known-defect failures (rescaled PR frames refuted, ROADMAP item 4)
        # are counted in failed and ok_share; any other failure, or a traced
        # replay that changes an output, makes the run incorrect
        "correct": not unexpected and digests_agree,
        "attempted": attempted,
        "failed": len(all_failures),
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload end to end at a tiny size, untraced and traced."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = benchmark(name, 0, 0.0, trace, tiny=True)
            print(json.dumps(result))
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required unless --smoke is given")
    if not (SRC / "phaselens" / "__init__.py").is_file():
        print(f"error: no phaselens sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.setup_probe:
            _, seconds, _ = setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
