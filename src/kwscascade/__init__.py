"""Two-stage streaming keyword-spotting cascade.

A tiny always-on detector (emulating a fixed-point DSP) gates a larger,
more accurate second stage, with optional speaker verification on top.
The package also ships the measurement harness that reports false alarms
per hour against false reject rate and composes the two stages into
operating-point tables.
"""

from .cascade import (
    BudgetViolationError,
    Cascade,
    CascadeConfig,
    CascadeEvent,
    DetectorStream,
    EventKind,
    MemoryBudget,
    RingBuffer,
    enforce_budget,
)
from .decoder import (
    DecoderConfig,
    KeywordHypothesis,
    StreamingDecoder,
    batch_frame_scores,
    keyword_score,
)
from .encoder import (
    Activation,
    EncoderLayer,
    EncoderModel,
    ModelKind,
    PosteriorFrame,
    encoder_forward,
    load_model,
    serialize_model,
)
from .frontend import (
    ArithmeticMode,
    AudioChunk,
    FeatureFrame,
    FrontendConfig,
    FrontendStream,
    compute_features,
)
from .quantize import (
    AccumMode,
    QuantParams,
    QuantizedTensor,
    compute_quant_params,
    dequantize,
    quantize,
)
from .speaker import SpeakerProfile, SpeakerSignature, embed, enroll, verify

__version__ = "0.1.0"
