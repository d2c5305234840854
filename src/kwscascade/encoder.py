"""Quantized feed-forward encoder: model container, binary format, inference.

An acoustic model maps stacked log-mel frames to softmax posteriors over
M keyword units plus one filler unit. The same container with a different
``kind`` serves as the speaker-embedding network (final activation is
linear and there is no filler). Activation ranges are calibrated offline
and stored per layer; nothing is recomputed at run time, so a DSP can run
the whole chain in integers.

Binary model file layout (all little-endian):

    0   4  magic b"KWSQ"
    4   2  version (currently 1), u16
    6   1  kind: 0 acoustic, 1 embedding
    7   1  reserved (0)
    8   2  num_channels, u16
    10  2  num_stacked_frames, u16
    12  2  num_units (M for acoustic, D for embedding), u16
    14  2  num_layers, u16
    16  2  name_len, u16
    18  *  name, utf-8 (also usable as padding)
    then per layer:
        4  in_dim u32, 4 out_dim u32, 1 activation u8, 3 reserved
        16 input range (min f32, max f32), weight range (min f32, max f32)
        in_dim*out_dim  weights u8, row-major [out, in]
        4*out_dim       bias i32, in scale_w * scale_in units
"""

import io
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fixedpoint import _read_only
from .quantize import (
    AccumMode,
    DimensionError,
    QuantParams,
    QuantizedTensor,
    compute_quant_params,
    fixed_accumulate,
    float_accumulate,
    offset_weights,
    quantize,
    quantize_bias,
    requantize_fixed,
    requantize_multiplier,
)

MAGIC = b"KWSQ"
VERSION = 1

_HEADER = struct.Struct("<4sHBBHHHHH")
_LAYER_HEADER = struct.Struct("<IIB3x4f")


class ModelParseError(ValueError):
    """Malformed model bytes; carries the offending byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class Activation(Enum):
    NONE = 0
    RELU = 1
    SOFTMAX = 2


class ModelKind(Enum):
    ACOUSTIC = 0
    EMBEDDING = 1


@dataclass(frozen=True)
class EncoderLayer:
    """One quantized layer. It keeps read-only copies of its arrays, so the
    constants every forward pass uses are worked out once, here: the
    combined scale and both accumulators' offset weight matrices."""

    weights: QuantizedTensor  # [out_dim, in_dim]
    bias_q: np.ndarray  # int32, scale_w * scale_in units
    input_params: QuantParams
    activation: Activation

    def __post_init__(self):
        weights = QuantizedTensor(_read_only(np.array(self.weights.data, dtype=np.uint8)),
                                  self.weights.params)
        bias_q = _read_only(np.array(self.bias_q, dtype=np.int32))
        if weights.data.ndim != 2:
            raise DimensionError("layer weights must be 2-D")
        if bias_q.shape != (weights.shape[0],):
            raise DimensionError(f"bias shape {bias_q.shape} != out_dim {weights.shape[0]}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias_q", bias_q)
        object.__setattr__(self, "combined_scale", weights.params.scale * self.input_params.scale)
        object.__setattr__(self, "fixed_weights", _read_only(offset_weights(weights, np.int64)))
        object.__setattr__(self, "float_weights", _read_only(offset_weights(weights, np.float64)))

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


@dataclass
class EncoderModel:
    layers: list
    num_channels: int
    num_stacked_frames: int
    num_units: int
    kind: ModelKind = ModelKind.ACOUSTIC
    name: str = ""

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("model needs at least one layer")
        expect = self.num_channels * self.num_stacked_frames
        for i, layer in enumerate(self.layers):
            if layer.in_dim != expect:
                raise DimensionError(
                    f"layer {i} input dim {layer.in_dim} != expected {expect}"
                )
            expect = layer.out_dim
        final = self.layers[-1]
        if self.kind is ModelKind.ACOUSTIC:
            if final.activation is not Activation.SOFTMAX:
                raise DimensionError("acoustic model must end in a softmax layer")
            if final.out_dim != self.num_units + 1:
                raise DimensionError(
                    f"softmax width {final.out_dim} != num_units+filler {self.num_units + 1}"
                )
        else:
            if final.activation is Activation.SOFTMAX:
                raise DimensionError("embedding model must not end in softmax")
            if final.out_dim != self.num_units:
                raise DimensionError(
                    f"embedding width {final.out_dim} != declared {self.num_units}"
                )

    @property
    def input_dim(self):
        return self.num_channels * self.num_stacked_frames

    @property
    def byte_size(self):
        return len(serialize_model(self))


@dataclass
class PosteriorFrame:
    """Per-frame posteriors: M keyword units plus filler, summing to one."""

    keyword_posteriors: np.ndarray
    filler_posterior: float
    frame_index: int


def serialize_model(model):
    name_bytes = model.name.encode("utf-8")
    out = io.BytesIO()
    out.write(
        _HEADER.pack(
            MAGIC,
            VERSION,
            model.kind.value,
            0,
            model.num_channels,
            model.num_stacked_frames,
            model.num_units,
            len(model.layers),
            len(name_bytes),
        )
    )
    out.write(name_bytes)
    for layer in model.layers:
        p_in, p_w = layer.input_params, layer.weights.params
        out.write(
            _LAYER_HEADER.pack(
                layer.in_dim,
                layer.out_dim,
                layer.activation.value,
                p_in.min_val,
                p_in.max_val,
                p_w.min_val,
                p_w.max_val,
            )
        )
        out.write(layer.weights.data.tobytes())
        out.write(layer.bias_q.astype("<i4").tobytes())
    return out.getvalue()


def _take(data, offset, size, what):
    if offset + size > len(data):
        raise ModelParseError(f"truncated while reading {what}", offset)
    return data[offset : offset + size], offset + size


def load_model(data):
    """Parse model bytes; inverse of serialize_model, byte for byte."""
    raw, offset = _take(data, 0, _HEADER.size, "header")
    magic, version, kind, _, channels, stacked, units, n_layers, name_len = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ModelParseError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise ModelParseError(f"unsupported version {version}", 4)
    try:
        kind = ModelKind(kind)
    except ValueError:
        raise ModelParseError(f"unknown model kind code {kind}", 6)
    raw, offset = _take(data, offset, name_len, "name")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ModelParseError("name field is not valid utf-8", offset - name_len)
    layers = []
    for i in range(n_layers):
        header = offset
        raw, offset = _take(data, offset, _LAYER_HEADER.size, f"layer {i} header")
        in_dim, out_dim, act, in_min, in_max, w_min, w_max = _LAYER_HEADER.unpack(raw)
        try:
            activation = Activation(act)
        except ValueError:
            raise ModelParseError(f"unknown activation code {act}", header)
        if not np.all(np.isfinite([in_min, in_max, w_min, w_max])):
            raise ModelParseError(f"layer {i} has a non-finite range", header)
        in_params = QuantParams(in_min, in_max)
        # FIXED inference requantizes into this layer with a rounding shift
        # that must stay inside int64 (see requantize_multiplier)
        if layers and not 1 <= requantize_multiplier(layers[-1].combined_scale, in_params)[1] <= 62:
            raise ModelParseError(f"layer {i} input range is out of scale with layer {i - 1}",
                                  header)
        raw, offset = _take(data, offset, in_dim * out_dim, f"layer {i} weights")
        weights = QuantizedTensor(
            np.frombuffer(raw, dtype=np.uint8).reshape(out_dim, in_dim).copy(),
            QuantParams(w_min, w_max),
        )
        raw, offset = _take(data, offset, 4 * out_dim, f"layer {i} bias")
        bias_q = np.frombuffer(raw, dtype="<i4").astype(np.int32)
        # worst case over uint8 inputs must fit the 32-bit accumulator
        bound = np.abs(bias_q.astype(np.int64)) + 255 * np.abs(
            weights.data.astype(np.int64) - weights.params.zero_point).sum(axis=1)
        if np.any(bound > np.iinfo(np.int32).max):
            raise ModelParseError(f"layer {i} can overflow the 32-bit accumulator",
                                  offset - 4 * out_dim)
        layers.append(EncoderLayer(weights, bias_q, in_params, activation))
    if offset != len(data):
        raise ModelParseError(f"{len(data) - offset} trailing bytes", offset)
    return EncoderModel(layers, channels, stacked, units, kind, name)


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_vector(model, features, mode=AccumMode.FIXED):
    """Run one stacked feature vector [D], or a stack of them [N, D].

    Returns softmax probabilities for acoustic models and the raw final
    activations for embedding models, one row per input row. The FIXED
    path stays in integers between layers (32-bit accumulate, Q31
    requantize); the FLOAT path accumulates the same quantized operands
    exactly in float64. Every step is exact or works row by row, so row k
    of a stacked call equals the one-row call bit for bit.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (1, 2) or features.shape[-1] != model.input_dim:
        raise DimensionError(
            f"input shape {features.shape} is not ({model.input_dim},) or (N, {model.input_dim})"
        )
    x_q = quantize(features, model.layers[0].input_params)
    for k, layer in enumerate(model.layers):
        last = k == len(model.layers) - 1
        if mode is AccumMode.FIXED:
            acc = fixed_accumulate(layer.fixed_weights, x_q, layer.bias_q)
            if layer.activation is Activation.RELU:
                acc = np.maximum(acc, 0)
            if last:
                real = acc.astype(np.float64) * layer.combined_scale
                break
            x_q = QuantizedTensor(
                requantize_fixed(acc, layer.combined_scale, model.layers[k + 1].input_params),
                model.layers[k + 1].input_params,
            )
        else:
            real = float_accumulate(layer.float_weights, x_q, layer.bias_q, layer.combined_scale)
            if layer.activation is Activation.RELU:
                real = np.maximum(real, 0.0)
            if last:
                break
            x_q = quantize(real, model.layers[k + 1].input_params)
    if model.layers[-1].activation is Activation.SOFTMAX:
        return _softmax(real)
    return real


def stack_frames(features, num_stacked):
    """[T, C] -> [T - S + 1, C * S]; row t holds frames t-S+1..t, oldest first."""
    features = np.asarray(features, dtype=np.float64)
    total = features.shape[0]
    if total < num_stacked:
        return np.zeros((0, features.shape[1] * num_stacked))
    cols = [features[s : total - num_stacked + 1 + s] for s in range(num_stacked)]
    return np.concatenate(cols, axis=1)


def check_kind(model, kind, role):
    """DimensionError unless ``model`` is of ``kind``."""
    if model.kind is not kind:
        raise DimensionError(f"the {role} model is not an {kind.name.lower()} model")


def model_inputs(frames, model, kind, role):
    """The stacked input rows of a ``kind`` model, checked.

    ``frames`` is a list of FeatureFrames or a [T, num_channels] array; an
    empty list reads as a [0, num_channels] array. Returns the rows of
    stack_frames, none when T < num_stacked_frames, and each frame's
    index: its frame_index, or its row number in an array.
    """
    check_kind(model, kind, role)
    if hasattr(frames, "ndim"):
        feats = np.asarray(frames, dtype=np.float64)
    elif frames:
        feats = np.array([f.channels for f in frames])
    else:
        feats = np.zeros((0, model.num_channels))
    if feats.ndim != 2 or feats.shape[1] != model.num_channels:
        raise DimensionError(f"frames of shape {feats.shape} are not [T, {model.num_channels}]")
    indices = range(len(feats)) if hasattr(frames, "ndim") else [f.frame_index for f in frames]
    return stack_frames(feats, model.num_stacked_frames), indices


def encoder_forward(frames, model, mode=AccumMode.FIXED):
    """Posteriors for every frame with a full stack of history.

    ``frames`` is as for model_inputs. Emits one PosteriorFrame per input
    frame t >= num_stacked_frames - 1, carrying that frame's index.
    """
    rows, indices = model_inputs(frames, model, ModelKind.ACOUSTIC, "encoder")
    probs = forward_vector(model, rows, mode)
    return [
        PosteriorFrame(row[: model.num_units], float(row[model.num_units]), idx)
        for row, idx in zip(probs, indices[model.num_stacked_frames - 1 :])
    ]


# ---------------------------------------------------------------------------
# Float-weight text description -> quantized model (the quantize-model input)
# ---------------------------------------------------------------------------

def parse_model_description(text):
    """Parse the text model description used by quantize-model.

    Grammar (one item per line, '#' comments):
        model acoustic|embedding
        channels N
        stacked N
        units N
        name STR                (optional)
        layer ACT IN OUT        starts a layer (ACT: none|relu|softmax)
        input_range MIN MAX
        weights                 followed by OUT lines of IN floats
        bias                    followed by one line of OUT floats
    """
    header = {}
    layers = []
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    i = 0

    def fail(msg):
        raise ValueError(f"model description: {msg}")

    while i < len(lines):
        parts = lines[i].split()
        key = parts[0]
        if key in ("model", "channels", "stacked", "units", "name"):
            header[key] = parts[1]
            i += 1
        elif key == "layer":
            if len(parts) != 4:
                fail(f"layer needs 'layer ACT IN OUT', got {lines[i]!r}")
            act = {"none": Activation.NONE, "relu": Activation.RELU, "softmax": Activation.SOFTMAX}.get(parts[1])
            if act is None:
                fail(f"unknown activation {parts[1]!r}")
            in_dim, out_dim = int(parts[2]), int(parts[3])
            i += 1
            if i >= len(lines) or not lines[i].startswith("input_range"):
                fail("layer must be followed by input_range MIN MAX")
            _, lo, hi = lines[i].split()
            i += 1
            if i >= len(lines) or lines[i] != "weights":
                fail("expected 'weights'")
            i += 1
            rows = []
            for _ in range(out_dim):
                row = [float(v) for v in lines[i].split()]
                if len(row) != in_dim:
                    fail(f"weight row has {len(row)} values, expected {in_dim}")
                rows.append(row)
                i += 1
            if i >= len(lines) or lines[i] != "bias":
                fail("expected 'bias'")
            i += 1
            bias = [float(v) for v in lines[i].split()]
            if len(bias) != out_dim:
                fail(f"bias has {len(bias)} values, expected {out_dim}")
            i += 1
            layers.append(
                {
                    "activation": act,
                    "weights": np.array(rows),
                    "bias": np.array(bias),
                    "input_range": (float(lo), float(hi)),
                }
            )
        else:
            fail(f"unknown directive {key!r}")
    for required in ("model", "channels", "stacked", "units"):
        if required not in header:
            fail(f"missing '{required}' line")
    if not layers:
        fail("no layers")
    return header, layers


def build_model_from_description(text):
    """Quantize a float-weight text description into an EncoderModel."""
    header, raw_layers = parse_model_description(text)
    kind = {"acoustic": ModelKind.ACOUSTIC, "embedding": ModelKind.EMBEDDING}.get(header["model"])
    if kind is None:
        raise ValueError(f"model kind must be acoustic or embedding, got {header['model']!r}")
    layers = []
    for item in raw_layers:
        in_params = QuantParams(*item["input_range"])
        w_params = compute_quant_params(item["weights"])
        weights = quantize(item["weights"], w_params)
        bias_q = quantize_bias(item["bias"], w_params.scale * in_params.scale)
        layers.append(EncoderLayer(weights, bias_q, in_params, item["activation"]))
    return EncoderModel(
        layers,
        int(header["channels"]),
        int(header["stacked"]),
        int(header["units"]),
        kind,
        header.get("name", ""),
    )


def pad_model_to_size(model, target_bytes):
    """Grow the model's name field until serialization hits an exact size.

    The name field is a u16 length, so at most 65535 bytes of padding fit;
    larger targets need genuinely larger weight tensors.
    """
    base = len(serialize_model(model))
    extra = target_bytes - base
    if extra < 0:
        raise ValueError(f"model already {base} bytes, cannot shrink to {target_bytes}")
    if len(model.name.encode("utf-8")) + extra > 0xFFFF:
        raise ValueError("padding would overflow the u16 name field")
    model.name = model.name + " " * extra
    return model
