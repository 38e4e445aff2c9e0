"""Frame and vector (de)serialization, canonical form, and fingerprints.

Frame file format (JSON):

    {"field": "real"|"complex", "dim": n, "vectors": [[a, b, ...], ...]}

with complex entries written as two-element [re, im] arrays, or the structured
alternative

    {"structured": "pairwise_sum", "truncation": N}

CSV (real explicit frames only): one vector per row.

The canonical serialization (sorted keys, 17-significant-digit floats) backs
the certificate fingerprint, so identical frames hash identically.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json

import numpy as np

from .errors import FrameFormatError, IncompatibleVector
from .frames import COMPLEX, REAL, ExplicitFrame, Frame, PairwiseSumFrame
from .vectors import (
    DenseVector,
    FiniteSupportVector,
    ReciprocalVector,
    VectorRep,
)


def _fmt(x: float) -> float:
    # round-trip through 17 significant digits; json then prints the shortest
    # representation of that exact double
    return float(format(float(x), ".17g"))


def _entry_to_json(v, field):
    if field == COMPLEX:
        c = complex(v)
        return [_fmt(c.real), _fmt(c.imag)]
    return _fmt(float(np.real(v)))


def frame_to_dict(frame: Frame) -> dict:
    if isinstance(frame, PairwiseSumFrame):
        return {"structured": "pairwise_sum", "truncation": frame.truncation}
    return {
        "field": frame.field,
        "dim": frame.dim,
        "vectors": [
            [_entry_to_json(v, frame.field) for v in row] for row in frame.matrix
        ],
    }


def frame_from_dict(data: dict) -> Frame:
    if not isinstance(data, dict):
        raise FrameFormatError("frame document must be a JSON object")
    if "structured" in data:
        if data["structured"] != "pairwise_sum":
            raise FrameFormatError(f"unknown structured frame {data['structured']!r}")
        try:
            return PairwiseSumFrame(int(data["truncation"]))
        except (KeyError, ValueError, TypeError) as e:
            raise FrameFormatError(f"bad truncation: {e}") from e
    try:
        field = data["field"]
        dim = int(data["dim"])
        vectors = data["vectors"]
    except (KeyError, ValueError, TypeError) as e:
        raise FrameFormatError(f"missing or malformed frame key: {e}") from e
    if field not in (REAL, COMPLEX):
        raise FrameFormatError(f"unknown field {field!r}")
    rows = []
    for row in vectors:
        if len(row) != dim:
            raise FrameFormatError(f"vector length {len(row)} != dim {dim}")
        rows.append(DenseVector([_parse_entry(e) for e in row]))
    try:
        return ExplicitFrame(rows, field=field)
    except Exception as e:
        raise FrameFormatError(str(e)) from e


def canonical_frame_json(frame: Frame) -> str:
    return json.dumps(frame_to_dict(frame), sort_keys=True, separators=(",", ":"))


def frame_fingerprint(frame: Frame) -> str:
    return hashlib.sha256(canonical_frame_json(frame).encode("utf-8")).hexdigest()


def load_frame(path: str, field: str | None = None) -> Frame:
    """Load a frame from a .json or .csv file.

    ``field`` overrides the file's field tag for CSV input (which is real by
    default).
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".csv"):
        return frame_from_csv(text, field=field or REAL)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FrameFormatError(f"invalid JSON in {path}: {e}") from e
    frame = frame_from_dict(data)
    if field is not None and isinstance(frame, ExplicitFrame) and field != frame.field:
        frame = ExplicitFrame([DenseVector(r) for r in frame.matrix], field=field)
    return frame


def frame_from_csv(text: str, field: str = REAL) -> ExplicitFrame:
    if field != REAL:
        raise FrameFormatError("CSV frames are real-only")
    rows = []
    for rec in csv.reader(_io.StringIO(text)):
        if not rec or all(not cell.strip() for cell in rec):
            continue
        try:
            rows.append(DenseVector([float(c) for c in rec]))
        except ValueError as e:
            raise FrameFormatError(f"bad CSV entry: {e}") from e
    if not rows:
        raise FrameFormatError("empty CSV frame")
    return ExplicitFrame(rows, field=REAL)


def vector_to_json(x: VectorRep) -> dict:
    if isinstance(x, ReciprocalVector):
        return {"structured": "reciprocal"}
    if isinstance(x, FiniteSupportVector):
        cplx = np.iscomplexobj(x.values)
        return {
            "support": [
                [int(i), _entry_to_json(v, COMPLEX if cplx else REAL)]
                for i, v in zip(x.indices, x.values)
            ]
        }
    cplx = np.iscomplexobj(x.coords)
    return {
        "coords": [_entry_to_json(v, COMPLEX if cplx else REAL) for v in x.coords]
    }


def vector_from_obj(data) -> VectorRep:
    """Parse a vector from its JSON form (object or bare coordinate list); a
    vector its constructor rejects (empty, a 0-based or repeated index) is a
    parse error too."""
    try:
        if isinstance(data, list):
            return DenseVector([_parse_entry(e) for e in data])
        if isinstance(data, dict):
            if data.get("structured") == "reciprocal":
                return ReciprocalVector()
            if "support" in data:
                try:
                    pairs = [(int(i), _parse_entry(v)) for i, v in data["support"]]
                except (TypeError, ValueError) as e:
                    raise FrameFormatError(f"support must be [index, value] pairs: {e}") from e
                return FiniteSupportVector(pairs)
            if "coords" in data:
                return DenseVector([_parse_entry(e) for e in data["coords"]])
    except IncompatibleVector as e:
        raise FrameFormatError(f"invalid vector: {e}") from e
    raise FrameFormatError(f"cannot parse vector from {data!r}")


def _parse_entry(e):
    try:
        if isinstance(e, (list, tuple)):
            if len(e) != 2:
                raise FrameFormatError(f"complex entry must be [re, im], got {e!r}")
            return complex(float(e[0]), float(e[1]))
        return float(e)
    except (TypeError, ValueError) as err:
        raise FrameFormatError(f"bad entry {e!r}: {err}") from err


def parse_vector_arg(text: str) -> VectorRep:
    """Parse a CLI vector argument: JSON literal or shorthand like '3,0'."""
    text = text.strip()
    if text == "reciprocal":
        return ReciprocalVector()
    if text.startswith("[") or text.startswith("{"):
        try:
            return vector_from_obj(json.loads(text))
        except json.JSONDecodeError as e:
            raise FrameFormatError(f"invalid vector JSON: {e}") from e
    try:
        return DenseVector([float(c) for c in text.split(",")])
    except ValueError as e:
        raise FrameFormatError(f"cannot parse vector {text!r}: {e}") from e
