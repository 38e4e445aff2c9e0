"""phaselens: frame analysis on the phase-quotient of a Hilbert space.

Certify whether a vector family determines signals up to a unimodular factor
from coefficient magnitudes, compute the quotient-space metrics attached to
such families, and run convergence diagnostics separating the associated
topologies.
"""

from .certify import (
    Certificate,
    CollidingPair,
    FailingSubset,
    Method,
    SparkResult,
    Verdict,
    certify_phase_retrieval,
    complement_property,
    falsify_by_sign_enumeration,
    is_full_spark,
    spark,
    transform_frame,
)
from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldError,
    FrameFormatError,
    IncompatibleVector,
    NotAFrameError,
    PhaseLensError,
    SingularTransformError,
)
from .frames import (
    ExplicitFrame,
    Frame,
    FrameBounds,
    PairwiseSumFrame,
    analysis_magnitudes,
    canonical_dual,
    frame_bounds,
    frame_operator,
)
from .io import frame_fingerprint, load_frame
from .metrics import (
    FrakResult,
    MetricReport,
    bures_distance,
    d_phi,
    d_phi_definitional,
    frak_distance,
    inequality_report,
    realize_from_magnitudes,
)
from .topology import (
    AlternatingSign,
    CoincidenceReport,
    ConvergenceReport,
    ConvergenceVerdict,
    ExplicitList,
    PerturbedLimit,
    ScaledBasis,
    converge_d_phi,
    converge_tau_phi,
    converge_tau_w,
    default_tau_w_witnesses,
    finite_dim_coincidence_suite,
    separation_witness,
)
from .vectors import (
    DenseVector,
    FiniteSupportVector,
    QuotientPoint,
    ReciprocalVector,
    basis_vector,
    inner_product,
    zero_vector,
)

__all__ = [
    # certify
    "Certificate", "CollidingPair", "FailingSubset", "Method", "SparkResult", "Verdict",
    "certify_phase_retrieval", "complement_property", "falsify_by_sign_enumeration",
    "is_full_spark", "spark", "transform_frame",
    # errors
    "DimensionMismatch", "EnumerationCapExceeded", "FieldError", "FrameFormatError",
    "IncompatibleVector", "NotAFrameError", "PhaseLensError", "SingularTransformError",
    # frames, io
    "ExplicitFrame", "Frame", "FrameBounds", "PairwiseSumFrame", "analysis_magnitudes",
    "canonical_dual", "frame_bounds", "frame_operator", "frame_fingerprint", "load_frame",
    # metrics
    "FrakResult", "MetricReport", "bures_distance", "d_phi", "d_phi_definitional",
    "frak_distance", "inequality_report", "realize_from_magnitudes",
    # topology
    "AlternatingSign", "CoincidenceReport", "ConvergenceReport", "ConvergenceVerdict",
    "ExplicitList", "PerturbedLimit", "ScaledBasis", "converge_d_phi", "converge_tau_phi",
    "converge_tau_w", "default_tau_w_witnesses", "finite_dim_coincidence_suite",
    "separation_witness",
    # vectors
    "DenseVector", "FiniteSupportVector", "QuotientPoint", "ReciprocalVector",
    "basis_vector", "inner_product", "zero_vector",
]

__version__ = "0.1.0"
