"""Speaker verification: frame embeddings, enrollment, cosine scoring.

The embedding network is a per-frame feed-forward net (an EncoderModel of
kind EMBEDDING) whose outputs are mean-pooled over the keyword segment
into one signature vector. Enrollment averages N raw signatures and
length-normalises once; verification is cosine *similarity* with accept
on score >= threshold.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .encoder import ModelKind, forward_vector, model_inputs
from .quantize import AccumMode, DimensionError

PROFILE_MAGIC = b"KWSV"
PROFILE_VERSION = 1


class UnscorableError(ValueError):
    """Input the verifier cannot score: a segment too short to embed, or a zero
    vector, whose cosine is undefined."""


class EmptySegmentError(UnscorableError):
    """No frames to embed."""


@dataclass
class SpeakerSignature:
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("signature contains non-finite values")


@dataclass
class SpeakerProfile:
    signature: SpeakerSignature  # unit length
    num_enrollment_utterances: int
    threshold: float

    def __post_init__(self):
        if self.num_enrollment_utterances < 1:
            raise ValueError("enrollment needs at least one utterance")
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError("cosine threshold must lie in [-1, 1]")


@dataclass
class VerifyResult:
    score: float
    accepted: bool


def embed(features, model):
    """Mean-pooled embedding of a feature segment.

    ``features`` is a list of FeatureFrames or a [T, C] array, already
    segmented by the stage-2 alignment. Deterministic for a fixed model
    and input. The embedding runs in float, on the AP.
    """
    stacked, indices = model_inputs(features, model, ModelKind.EMBEDDING, "speaker")
    if not indices:
        raise EmptySegmentError("cannot embed an empty segment")
    if len(stacked) == 0:
        raise EmptySegmentError(
            f"segment of {len(indices)} frames is shorter than the "
            f"{model.num_stacked_frames}-frame stack"
        )
    return SpeakerSignature(forward_vector(model, stacked, AccumMode.FLOAT).mean(axis=0))


def enroll(signatures, threshold=0.6):
    """Average N signatures, normalise once, wrap as a profile."""
    if not signatures:
        raise ValueError("enrollment needs at least one signature")
    dims = {s.vector.shape for s in signatures}
    if len(dims) != 1:
        raise DimensionError(f"signatures disagree on dimension: {sorted(dims)}")
    mean = np.mean([s.vector for s in signatures], axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise ValueError("enrollment signatures average to the zero vector")
    return SpeakerProfile(SpeakerSignature(mean / norm), len(signatures), threshold)


def cosine_similarity(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise UnscorableError("cosine similarity of a zero vector is undefined")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def verify(test, profile):
    """Cosine score of a test signature against a profile, plus the decision."""
    if test.vector.shape != profile.signature.vector.shape:
        raise DimensionError(
            f"test dim {test.vector.shape} != profile dim {profile.signature.vector.shape}"
        )
    score = cosine_similarity(test.vector, profile.signature.vector)
    return VerifyResult(score, score >= profile.threshold)


def serialize_profile(profile):
    vec = profile.signature.vector.astype("<f4")
    return (
        PROFILE_MAGIC
        + struct.pack("<HII", PROFILE_VERSION, len(vec), profile.num_enrollment_utterances)
        + vec.tobytes()
        + struct.pack("<f", profile.threshold)
    )


def load_profile(data):
    head = struct.calcsize("<4sHII")
    if len(data) < head:
        raise ValueError("profile file truncated")
    magic, version, dim, n_enroll = struct.unpack("<4sHII", data[:head])
    if magic != PROFILE_MAGIC:
        raise ValueError(f"bad profile magic {magic!r}")
    if version != PROFILE_VERSION:
        raise ValueError(f"unsupported profile version {version}")
    need = head + 4 * dim + 4
    if len(data) != need:
        raise ValueError(f"profile file is {len(data)} bytes, expected {need}")
    vec = np.frombuffer(data[head : head + 4 * dim], dtype="<f4")
    # checked before the cast, which warns on a signalling NaN
    if not np.all(np.isfinite(vec)):
        raise ValueError("profile vector is not finite")
    vec = vec.astype(np.float64)
    if not np.any(vec):
        raise ValueError("profile vector is zero; a profile is unit length")
    (threshold,) = struct.unpack("<f", data[head + 4 * dim :])
    return SpeakerProfile(SpeakerSignature(vec), n_enroll, float(threshold))
