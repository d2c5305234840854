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

from .encoder import ModelKind, forward_vector, stack_frames
from .quantize import AccumMode, DimensionError

EMBEDDING_DIM_DEFAULT = 64
PROFILE_MAGIC = b"KWSV"
PROFILE_VERSION = 1


class EmptySegmentError(ValueError):
    """No frames to embed."""


@dataclass
class SpeakerSignature:
    vector: np.ndarray
    source_frames: int

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


def embed(features, model, mode=AccumMode.FLOAT):
    """Mean-pooled embedding of a feature segment.

    ``features`` is a list of FeatureFrames or a [T, C] array, already
    segmented by the stage-2 alignment. Deterministic for a fixed model
    and input.
    """
    if model.kind is not ModelKind.EMBEDDING:
        raise DimensionError("embed needs an embedding model")
    if hasattr(features, "ndim"):
        feats = np.asarray(features, dtype=np.float64)
    else:
        feats = (
            np.stack([f.channels for f in features])
            if features
            else np.zeros((0, model.num_channels))
        )
    if feats.shape[0] == 0:
        raise EmptySegmentError("cannot embed an empty segment")
    if feats.shape[1] != model.num_channels:
        raise DimensionError(
            f"{feats.shape[1]} channels != model num_channels {model.num_channels}"
        )
    stacked = stack_frames(feats, model.num_stacked_frames)
    if stacked.shape[0] == 0:
        raise EmptySegmentError(
            f"segment of {feats.shape[0]} frames is shorter than the "
            f"{model.num_stacked_frames}-frame stack"
        )
    outputs = forward_vector(model, stacked, mode)
    return SpeakerSignature(outputs.mean(axis=0), stacked.shape[0])


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
    pooled = SpeakerSignature(mean / norm, sum(s.source_frames for s in signatures))
    return SpeakerProfile(pooled, len(signatures), threshold)


def cosine_similarity(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
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
    vec = np.frombuffer(data[head : head + 4 * dim], dtype="<f4").astype(np.float64)
    if not np.any(vec):
        raise ValueError("profile vector is zero; a profile is unit length")
    (threshold,) = struct.unpack("<f", data[head + 4 * dim :])
    return SpeakerProfile(SpeakerSignature(vec, 0), n_enroll, float(threshold))
