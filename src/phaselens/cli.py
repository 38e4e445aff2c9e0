"""Command-line front end.

Commands:

    phaselens certify <frame>            exit 0/1/2 = PR / not PR / inconclusive
    phaselens bounds <frame>
    phaselens dist <frame> <x> <y>
    phaselens converge <frame> <seqspec> <limit>
    phaselens suite <frame>
    phaselens repro <scenario>

Frames are JSON (or CSV for real explicit families); vectors are JSON or
comma-separated shorthand.  Exit 64 flags a parse error, 65 an enumeration
cap, 70 anything else.  JSON output is canonical (sorted keys), so identical
inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config
from .certify import Verdict, certify_phase_retrieval
from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FrameFormatError,
    IncompatibleVector,
    PhaseLensError,
    UnknownScenarioError,
)
from .frames import ExplicitFrame, PairwiseSumFrame, frame_bounds
from .io import frame_fingerprint, load_frame, parse_vector_arg, vector_from_obj
from .metrics import inequality_report
from .repro import SCENARIOS, run_scenario
from .topology import (
    AlternatingSign,
    ExplicitList,
    PerturbedLimit,
    ScaledBasis,
    converge_d_phi,
    converge_tau_phi,
    converge_tau_w,
    default_tau_w_witnesses,
    finite_dim_coincidence_suite,
)

EXIT_PARSE = 64
EXIT_CAP = 65
EXIT_ERROR = 70


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phaselens")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--field", choices=("real", "complex"), default=None)
    p.add_argument("--tol", type=float, default=config.DEFAULT_TOL)
    p.add_argument("--prefix", type=int, default=config.DEFAULT_PREFIX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-subsets", type=int, default=config.DEFAULT_SUBSET_CAP)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify the phase-retrieval property")
    c.add_argument("frame")
    c = sub.add_parser("bounds", help="optimal frame bounds")
    c.add_argument("frame")
    c = sub.add_parser("dist", help="metric report for a pair of vectors")
    c.add_argument("frame")
    c.add_argument("x")
    c.add_argument("y")
    c = sub.add_parser("converge", help="convergence diagnostics for a sequence")
    c.add_argument("frame")
    c.add_argument("seqspec")
    c.add_argument("limit")
    c.add_argument("--witness", action="append", default=[])
    c = sub.add_parser("suite", help="initial-vs-weak topology agreement suite")
    c.add_argument("frame")
    c.add_argument("--trials", type=int, default=100)
    c = sub.add_parser("repro", help="run a named reproduction scenario")
    c.add_argument("scenario", metavar=f"{{{','.join(sorted(SCENARIOS))}}}")
    return p


def _validate(args):
    for name in ("tol", "cap_subsets"):
        if getattr(args, name) <= 0:
            raise FrameFormatError(f"--{name.replace('_', '-')} must be positive")
    if args.prefix < 2:
        raise FrameFormatError("--prefix must be at least 2")
    if getattr(args, "trials", 1) < 1:
        raise FrameFormatError("--trials must be at least 1")


def _emit(args, payload: dict, table_lines):
    payload = dict(payload)
    payload["seed"] = args.seed
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def parse_seqspec(text: str):
    if not text.lstrip().startswith("{"):
        with open(text, "r", encoding="utf-8") as f:
            text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FrameFormatError(f"invalid sequence spec: {e}") from e
    if not isinstance(data, dict):
        raise FrameFormatError("sequence spec must be a JSON object")
    kind = data.get("type")
    try:
        if kind == "scaled_basis":
            return ScaledBasis(length=int(data["length"]), power=float(data.get("power", 1.0)))
        if kind == "alternating_sign":
            return AlternatingSign(length=int(data["length"]))
        if kind == "explicit":
            return ExplicitList(tuple(vector_from_obj(p) for p in data["points"]))
        if kind == "perturbed_limit":
            return PerturbedLimit(
                limit=vector_from_obj(data["limit"]),
                direction=vector_from_obj(data["direction"]),
                length=int(data["length"]),
                rate=float(data.get("rate", 1.0)),
            )
    except (KeyError, TypeError, ValueError, IncompatibleVector) as e:
        raise FrameFormatError(f"malformed {kind} sequence spec: {e!r}") from e
    raise FrameFormatError(f"unknown sequence type {kind!r}")


def cmd_certify(args) -> int:
    frame = load_frame(args.frame, field=args.field)
    if not isinstance(frame, ExplicitFrame):
        raise FrameFormatError("certification requires an explicit frame")
    cert = certify_phase_retrieval(frame, subset_cap=args.cap_subsets, seed=args.seed)
    doc = cert.to_dict()
    lines = [
        f"verdict      {cert.verdict.value}",
        f"method       {cert.method.value}",
        f"witness      {doc['witness']}",
        f"fingerprint  {cert.frame_fingerprint[:16]}",
    ]
    _emit(args, doc, lines)
    return {
        Verdict.PHASE_RETRIEVAL: 0,
        Verdict.NOT_PHASE_RETRIEVAL: 1,
        Verdict.INCONCLUSIVE: 2,
    }[cert.verdict]


def cmd_bounds(args) -> int:
    frame = load_frame(args.frame, field=args.field)
    if not isinstance(frame, ExplicitFrame):
        raise FrameFormatError("frame bounds require an explicit frame")
    b = frame_bounds(frame)
    doc = {
        "schema_version": config.SCHEMA_VERSION,
        "lower": b.lower,
        "upper": b.upper,
        "frame_fingerprint": frame_fingerprint(frame),
    }
    _emit(args, doc, [f"lower bound  {b.lower:.12g}", f"upper bound  {b.upper:.12g}"])
    return 0


def cmd_dist(args) -> int:
    frame = load_frame(args.frame, field=args.field)
    if not isinstance(frame, ExplicitFrame):
        raise FrameFormatError("the metric report requires an explicit frame")
    x = parse_vector_arg(args.x)
    y = parse_vector_arg(args.y)
    report = inequality_report(frame, x, y)
    doc = report.to_dict()
    width = max(len(k) for k in doc["inequality_slacks"])
    lines = [
        f"D            {report.D:.12g}",
        f"d_phi        {report.d_phi:.12g}",
        f"minimax      {report.frak_D:.12g}",
        f"theta_star   {report.theta_star:.12g}",
        f"alpha diff   {report.alpha_diff_norm:.12g}",
    ]
    for k, v in sorted(report.inequality_slacks.items()):
        lines.append(f"{k.ljust(width)}  {v:.6g}")
    _emit(args, doc, lines)
    return 0


def cmd_converge(args) -> int:
    frame = load_frame(args.frame, field=args.field)
    seq = parse_seqspec(args.seqspec)
    limit = parse_vector_arg(args.limit)
    rp = converge_tau_phi(frame, seq, limit, prefix=args.prefix, tol=args.tol)
    user = [parse_vector_arg(w) for w in args.witness]
    if isinstance(frame, PairwiseSumFrame):
        defaults = default_tau_w_witnesses(truncation=frame.truncation, seed=args.seed)
    else:
        defaults = default_tau_w_witnesses(dim=frame.dim, seed=args.seed)
    rw = converge_tau_w(seq, limit, user + defaults, prefix=args.prefix, tol=args.tol)
    rd = converge_d_phi(frame, seq, limit, prefix=args.prefix, tol=args.tol)
    doc = {
        "schema_version": config.SCHEMA_VERSION,
        "tau_phi": rp.to_dict(),
        "tau_w": rw.to_dict(),
        "d_phi": rd.to_dict(),
    }
    lines = ["topology  verdict"]
    for name, rep in (("tau_phi", rp), ("tau_w", rw), ("d_phi", rd)):
        lines.append(f"{name.ljust(9)} {rep.verdict.value}")
    _emit(args, doc, lines)
    return 0


def cmd_suite(args) -> int:
    frame = load_frame(args.frame, field=args.field)
    if not isinstance(frame, ExplicitFrame):
        raise FrameFormatError("the coincidence suite requires an explicit frame")
    report = finite_dim_coincidence_suite(
        frame, trials=args.trials, prefix=args.prefix, tol=args.tol, seed=args.seed
    )
    doc = report.to_dict()
    lines = [
        f"phase retrieval  {report.pr_certified}",
        f"trials           {report.trials}",
        f"mismatches       {report.mismatches}",
    ]
    _emit(args, doc, lines)
    return 0


def cmd_repro(args) -> int:
    bundle = run_scenario(args.scenario, seed=args.seed)
    lines = [f"scenario: {bundle['scenario']}", "check                                    result"]
    for c in bundle["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        lines.append(f"{c['check'][:40].ljust(40)} {status}")
    lines.append(f"overall: {'pass' if bundle['pass'] else 'FAIL'}")
    _emit(args, bundle, lines)
    return 0 if bundle["pass"] else 1


COMMANDS = {
    "certify": cmd_certify,
    "bounds": cmd_bounds,
    "dist": cmd_dist,
    "converge": cmd_converge,
    "suite": cmd_suite,
    "repro": cmd_repro,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return COMMANDS[args.command](args)
    except EnumerationCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (FrameFormatError, DimensionMismatch, UnknownScenarioError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PhaseLensError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
