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
    _INT32_MAX,
    AccumMode,
    AccumulatorOverflowError,
    DegenerateRangeError,
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


class LayerScaleError(ValueError):
    """Layer ``layer``'s requantize shift from the layer before leaves 1..62."""

    def __init__(self, layer):
        super().__init__(f"layer {layer} input range is out of scale with layer {layer - 1}")
        self.layer = layer


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
    combined scale and the offset weight matrix both accumulators read. It refuses
    a bias and weights that can overflow the 32-bit accumulator."""

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
        matrix = _read_only(offset_weights(weights))
        # the worst case over uint8 inputs, |b| + 255 * sum|w - z_w| per row, exact in float64
        if np.any(np.abs(bias_q.astype(np.int64)) + 255 * np.abs(matrix).sum(axis=0)
                  > _INT32_MAX):
            raise AccumulatorOverflowError("can overflow the 32-bit accumulator")
        object.__setattr__(self, "combined_scale", weights.params.scale * self.input_params.scale)
        object.__setattr__(self, "offset_weights", matrix)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


@dataclass
class EncoderModel:
    """A chain of layers that link in width, end as ``kind`` requires, and
    requantize between layers with a shift in 1..62 (LayerScaleError)."""

    layers: list
    num_channels: int
    num_stacked_frames: int
    num_units: int
    kind: ModelKind = ModelKind.ACOUSTIC
    name: str = ""

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("model needs at least one layer")
        fields = (self.num_channels, self.num_stacked_frames, self.num_units)
        if not all(1 <= v <= 0xFFFF for v in fields):  # u16 fields of the model file
            raise DimensionError(f"channels, stacked frames and units {fields} "
                                 "must lie in 1..65535")
        if len(self.name.encode("utf-8")) > 0xFFFF:  # the name's length is one too
            raise DimensionError("model name exceeds 65535 UTF-8 bytes")
        expect = self.num_channels * self.num_stacked_frames
        for i, layer in enumerate(self.layers):
            if layer.in_dim != expect:
                raise DimensionError(
                    f"layer {i} input dim {layer.in_dim} != expected {expect}"
                )
            # FIXED inference requantizes into a later layer with a rounding
            # shift that must stay inside int64 (see requantize_multiplier)
            if i and not 1 <= requantize_multiplier(self.layers[i - 1].combined_scale,
                                                    layer.input_params)[1] <= 62:
                raise LayerScaleError(i)
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
    """Parse model bytes; inverse of serialize_model, byte for byte. A rule the
    model types refuse is a ModelParseError at its layer's header or bias."""
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
    layers, headers = [], []
    for i in range(n_layers):
        headers.append(offset)
        raw, offset = _take(data, offset, _LAYER_HEADER.size, f"layer {i} header")
        in_dim, out_dim, act, in_min, in_max, w_min, w_max = _LAYER_HEADER.unpack(raw)
        try:
            activation = Activation(act)
        except ValueError:
            raise ModelParseError(f"unknown activation code {act}", headers[i])
        try:
            in_params, w_params = QuantParams(in_min, in_max), QuantParams(w_min, w_max)
        except DegenerateRangeError as exc:
            raise ModelParseError(f"layer {i}: {exc}", headers[i]) from None
        raw, offset = _take(data, offset, in_dim * out_dim, f"layer {i} weights")
        weights = QuantizedTensor(np.frombuffer(raw, dtype=np.uint8).reshape(out_dim, in_dim),
                                  w_params)
        raw, offset = _take(data, offset, 4 * out_dim, f"layer {i} bias")
        try:
            layers.append(EncoderLayer(weights, np.frombuffer(raw, dtype="<i4"), in_params,
                                       activation))
        except AccumulatorOverflowError as exc:
            raise ModelParseError(f"layer {i} {exc}", offset - 4 * out_dim) from None
    if offset != len(data):
        raise ModelParseError(f"{len(data) - offset} trailing bytes", offset)
    try:
        return EncoderModel(layers, channels, stacked, units, kind, name)
    except LayerScaleError as exc:
        raise ModelParseError(str(exc), headers[exc.layer]) from None


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
            acc = fixed_accumulate(layer.offset_weights, x_q, layer.bias_q)
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
            real = float_accumulate(layer.offset_weights, x_q, layer.bias_q, layer.combined_scale)
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
# Float weights -> quantized layers, and the text description quantize-model reads
# ---------------------------------------------------------------------------

def quantize_layer(weights, bias, input_params, activation):
    """The float-to-8-bit layer recipe: the weight range from min/max, uint8
    weights, and the bias in the weight_scale * input_scale accumulator scale."""
    w_params = compute_quant_params(weights)
    return EncoderLayer(quantize(weights, w_params),
                        quantize_bias(bias, w_params.scale * input_params.scale),
                        input_params, activation)


# the header and layer lines of the grammar below, and the values each takes
_DIRECTIVES = {"model": "acoustic|embedding", "channels": "N", "stacked": "N", "units": "N",
               "name": "STR", "layer": "ACT IN OUT"}


def build_model_from_description(text):
    """Quantize the text model description used by quantize-model, each layer
    as it is read.

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

    A malformed line, a text that ends early, or a layer that breaks a rule
    of QuantParams or EncoderLayer raises ValueError naming the line or the
    layer; EncoderModel checks the model as a whole.
    """
    lines = ((n, line.split("#", 1)[0].split()) for n, line in enumerate(text.splitlines(), 1))
    lines = ((n, words) for n, words in lines if words)
    where = None  # what an error names: the line read last, or the layer being built

    def take(keyword, count):
        """The floats on the next line: ``count`` of them after ``keyword``, or
        a row of ``count`` (keyword None)."""
        nonlocal where
        n, words = next(lines, (None, None))
        want = f"'{keyword}' and {count} values" if keyword else f"a row of {count} values"
        if words is None:
            raise ValueError(f"expected {want}, but the text ended")
        where = f"line {n}"
        if keyword and words[0] != keyword or len(words) != count + bool(keyword):
            raise ValueError(f"expected {want}, got {' '.join(words)!r}")
        return [float(w) for w in words[bool(keyword):]]

    header, layers = {}, []
    try:
        for n, (key, *args) in lines:
            where = f"line {n}"
            if key not in _DIRECTIVES:
                raise ValueError(f"unknown directive {key!r}")
            if len(args) != len(_DIRECTIVES[key].split()):
                raise ValueError(f"expected '{key} {_DIRECTIVES[key]}', "
                                 f"got {' '.join([key, *args])!r}")
            if key != "layer":
                header[key] = int(args[0]) if key in ("channels", "stacked", "units") else args[0]
                continue
            activation = {a.name.lower(): a for a in Activation}.get(args[0])
            if activation is None:
                raise ValueError(f"unknown activation {args[0]!r}")
            in_dim, out_dim = int(args[1]), int(args[2])
            lo, hi = take("input_range", 2)
            take("weights", 0)
            weights = [take(None, in_dim) for _ in range(out_dim)]
            take("bias", 0)
            bias = take(None, out_dim)
            where = f"layer {len(layers)}"
            layers.append(quantize_layer(np.array(weights), np.array(bias), QuantParams(lo, hi),
                                         activation))
    except (ValueError, AccumulatorOverflowError) as exc:
        raise ValueError(f"model description {where}: {exc}") from None
    for required in ("model", "channels", "stacked", "units"):
        if required not in header:
            raise ValueError(f"model description: missing '{required}' line")
    kind = {k.name.lower(): k for k in ModelKind}.get(header["model"])
    if kind is None:
        raise ValueError(f"model kind must be acoustic or embedding, got {header['model']!r}")
    return EncoderModel(layers, header["channels"], header["stacked"], header["units"], kind,
                        header.get("name", ""))


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
