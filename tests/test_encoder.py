import dataclasses
import hashlib
import struct
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwscascade.cascade import DetectorStream
from kwscascade.decoder import DecoderConfig, batch_frame_scores
from kwscascade.encoder import (
    Activation,
    EncoderLayer,
    EncoderModel,
    LayerScaleError,
    ModelKind,
    ModelParseError,
    build_model_from_description,
    encoder_forward,
    forward_vector,
    load_model,
    pad_model_to_size,
    quantize_layer,
    serialize_model,
    stack_frames,
)
from kwscascade import frontend as frontend_module
from kwscascade.frontend import ArithmeticMode, FrontendConfig, compute_features
from kwscascade.quantize import (
    AccumMode,
    AccumulatorOverflowError,
    DegenerateRangeError,
    DimensionError,
    QuantParams,
    compute_quant_params,
    quantize,
    quantize_bias,
)
from kwscascade.synthetic import (
    make_random_embedding_model,
    make_tone_acoustic_model,
    synth_keyword_audio,
    synth_noise,
)


def random_acoustic_model(rng, channels=8, stacked=2, units=3, hidden=16):
    in_dim = channels * stacked
    layers = [
        quantize_layer(rng.normal(0, 0.5, (hidden, in_dim)), rng.normal(0, 0.5, hidden),
                   QuantParams(-5.0, 5.0), Activation.RELU),
        quantize_layer(rng.normal(0, 0.5, (units + 1, hidden)), rng.normal(0, 0.5, units + 1),
                   QuantParams(0.0, 10.0), Activation.SOFTMAX),
    ]
    return EncoderModel(layers, channels, stacked, units)


class TestModelValidation:
    def test_layer_chain_must_link(self):
        rng = np.random.default_rng(0)
        bad = [
            quantize_layer(rng.normal(size=(6, 8)), np.zeros(6), QuantParams(-1, 1), Activation.RELU),
            quantize_layer(rng.normal(size=(4, 5)), np.zeros(4), QuantParams(-1, 1), Activation.SOFTMAX),
        ]
        with pytest.raises(DimensionError):
            EncoderModel(bad, 4, 2, 3)

    def test_acoustic_needs_softmax_over_units_plus_filler(self):
        rng = np.random.default_rng(0)
        layers = [quantize_layer(rng.normal(size=(4, 8)), np.zeros(4), QuantParams(-1, 1), Activation.RELU)]
        with pytest.raises(DimensionError):
            EncoderModel(layers, 4, 2, 3)

    def test_embedding_must_not_end_in_softmax(self):
        rng = np.random.default_rng(0)
        layers = [quantize_layer(rng.normal(size=(4, 8)), np.zeros(4), QuantParams(-1, 1), Activation.SOFTMAX)]
        with pytest.raises(DimensionError):
            EncoderModel(layers, 8, 1, 4, ModelKind.EMBEDDING)
        ok = [quantize_layer(rng.normal(size=(4, 8)), np.zeros(4), QuantParams(-1, 1), Activation.NONE)]
        EncoderModel(ok, 8, 1, 4, ModelKind.EMBEDDING)

    @pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
                                        (0.0, 1e39), (1.0, 1.0 + 1e-12), (1.0, 1.0)],
                             ids=["inf", "-inf", "nan", "float32_overflow",
                                  "no_float32_width", "no_width"])
    def test_range_must_be_finite_and_wide_as_float32(self, bounds):
        # a model file stores each bound as a float32
        with pytest.raises(DegenerateRangeError):
            QuantParams(*bounds)

    def test_layer_that_can_overflow_the_accumulator_is_refused(self):
        weights = quantize(np.eye(4), QuantParams(0.0, 1.0))  # zero point 0, ones are 255
        # row 0's worst case |b| + 255 * 255 sits exactly at the int32 maximum
        bias = np.array([2**31 - 1 - 255 * 255, 0, 0, 0])
        EncoderLayer(weights, bias, QuantParams(-1.0, 1.0), Activation.NONE)
        with pytest.raises(AccumulatorOverflowError, match="32-bit accumulator"):
            EncoderLayer(weights, bias + [1, 0, 0, 0], QuantParams(-1.0, 1.0), Activation.NONE)

    @pytest.mark.parametrize("second_range", [(0.0, 1e-20), (0.0, 1e30)],
                             ids=["shift_under_1", "shift_over_62"])
    def test_model_whose_requantize_shift_leaves_1_to_62_is_refused(self, second_range):
        rng = np.random.default_rng(0)
        layers = [
            quantize_layer(rng.normal(size=(4, 8)), np.zeros(4), QuantParams(-1, 1), Activation.RELU),
            quantize_layer(rng.normal(size=(3, 4)), np.zeros(3), QuantParams(*second_range),
                           Activation.SOFTMAX),
        ]
        with pytest.raises(LayerScaleError, match="out of scale") as err:
            EncoderModel(layers, 8, 1, 2)
        assert err.value.layer == 1
        EncoderModel(layers[:1] + [quantize_layer(rng.normal(size=(3, 4)), np.zeros(3),
                                                  QuantParams(0, 10), Activation.SOFTMAX)], 8, 1, 2)

    @pytest.mark.parametrize("fields", [(0, 8, 3), (8, 0, 3), (-4, -2, 3), (8, 1, 0), (2**16, 1, 3)],
                             ids=["channels_0", "stacked_0", "negative_pair", "units_0",
                                  "channels_65536"])
    def test_header_fields_must_fit_the_file(self, fields):
        # -4 channels of -2 frames once linked to an 8-wide layer, then failed to serialize
        layer = quantize_layer(np.random.default_rng(0).normal(size=(4, 8)), np.zeros(4),
                               QuantParams(-1, 1), Activation.SOFTMAX)
        with pytest.raises(DimensionError, match="1..65535"):
            EncoderModel([layer], *fields)

    def test_name_must_fit_its_u16_length_in_utf8_bytes(self):
        layer = quantize_layer(np.random.default_rng(0).normal(size=(4, 8)), np.zeros(4),
                               QuantParams(-1, 1), Activation.SOFTMAX)
        unnamed = len(serialize_model(EncoderModel([layer], 8, 1, 3)))
        assert len(serialize_model(EncoderModel([layer], 8, 1, 3, name="n" * 0xFFFF))) == (
            unnamed + 0xFFFF)
        with pytest.raises(DimensionError, match="name exceeds 65535 UTF-8 bytes"):
            EncoderModel([layer], 8, 1, 3, name="\u00e9" * 0x8000)  # 2 bytes each


class TestSerialization:
    def test_round_trip_identity(self):
        model = random_acoustic_model(np.random.default_rng(1))
        data = serialize_model(model)
        again = serialize_model(load_model(data))
        assert again == data

    def test_byte_size_matches_serialization(self):
        model = random_acoustic_model(np.random.default_rng(2))
        assert model.byte_size == len(serialize_model(model))

    def test_truncation_reports_offset(self):
        data = serialize_model(random_acoustic_model(np.random.default_rng(3)))
        for end in range(len(data)):
            with pytest.raises(ModelParseError) as err:
                load_model(data[:end])
            assert err.value.offset <= end

    def test_bad_magic_rejected(self):
        data = serialize_model(random_acoustic_model(np.random.default_rng(4)))
        with pytest.raises(ModelParseError) as err:
            load_model(b"XXXX" + data[4:])
        assert err.value.offset == 0

    def test_trailing_garbage_rejected(self):
        data = serialize_model(random_acoustic_model(np.random.default_rng(5)))
        with pytest.raises(ModelParseError):
            load_model(data + b"\x00")

    def test_random_corruption_never_crashes(self):
        # any single-byte corruption either still parses or raises one of
        # the structured errors; no bare struct/unicode/numpy crashes
        from kwscascade.quantize import DegenerateRangeError

        rng = np.random.default_rng(99)
        data = bytearray(serialize_model(random_acoustic_model(rng)))
        for _ in range(400):
            corrupted = bytearray(data)
            for _ in range(int(rng.integers(1, 4))):
                corrupted[int(rng.integers(0, len(corrupted)))] = int(rng.integers(0, 256))
            try:
                load_model(bytes(corrupted))
            except (ModelParseError, DegenerateRangeError, DimensionError):
                pass

    @pytest.mark.parametrize("field", range(4))  # input min/max, weight min/max
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_range_rejected_at_layer_header(self, field, value):
        model = random_acoustic_model(np.random.default_rng(97))
        data = bytearray(serialize_model(model))
        layer = 18 + len(model.name.encode())  # first layer header
        struct.pack_into("<f", data, layer + 12 + 4 * field, value)
        with pytest.raises(ModelParseError) as err:
            load_model(bytes(data))
        assert err.value.offset == layer

    def test_overflowing_bias_rejected_at_bias(self):
        # |b| + 255 * sum|w - z_w| must fit int32 for every row
        model = random_acoustic_model(np.random.default_rng(96))
        data = bytearray(serialize_model(model))
        bias_at = len(data) - 4 * model.layers[-1].out_dim
        struct.pack_into("<i", data, bias_at, -(2**31))
        with pytest.raises(ModelParseError, match="32-bit accumulator") as err:
            load_model(bytes(data))
        assert err.value.offset == bias_at

    def test_requantize_shift_out_of_range_rejected(self):
        model = random_acoustic_model(np.random.default_rng(95))
        data = bytearray(serialize_model(model))
        first = model.layers[0]
        second = 18 + 28 + first.in_dim * first.out_dim + 4 * first.out_dim  # layer 2 header
        struct.pack_into("<f", data, second + 16, 7.4e20)  # input range max
        with pytest.raises(ModelParseError, match="out of scale") as err:
            load_model(bytes(data))
        assert err.value.offset == second

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["acoustic", "embedding"]),
           st.lists(st.integers(0, 2**31), min_size=1, max_size=8))
    def test_bit_flipped_model_loads_and_runs_or_raises_value_error(self, kind, flips):
        data = bytearray(FUZZ_MODELS[kind])
        for bit in flips:
            data[bit // 8 % len(data)] ^= 1 << (bit % 8)
        try:
            model = load_model(bytes(data))
        except ValueError:
            return
        for mode in AccumMode:
            for value in (0.0, 1e9, -1e9):
                out = forward_vector(model, np.full(model.input_dim, value), mode)
                assert np.all(np.isfinite(out))

    def test_invalid_utf8_name_is_parse_error(self):
        model = random_acoustic_model(np.random.default_rng(98))
        model.name = "abcd"
        data = bytearray(serialize_model(model))
        data[18] = 0xFF  # first name byte: invalid utf-8 lead
        with pytest.raises(ModelParseError):
            load_model(bytes(data))

    def test_two_layer_40x64_64x8_size(self):
        # 40x64 + 64x8 8-bit weights ~ 3.1 kB plus headers and biases:
        # comfortably under the 13 kB stage-1 budget
        rng = np.random.default_rng(6)
        layers = [
            quantize_layer(rng.normal(size=(64, 40)), np.zeros(64), QuantParams(-5, 5), Activation.RELU),
            quantize_layer(rng.normal(size=(8, 64)), np.zeros(8), QuantParams(0, 10), Activation.SOFTMAX),
        ]
        model = EncoderModel(layers, 40, 1, 7)
        weights_bytes = 40 * 64 + 64 * 8
        assert weights_bytes <= model.byte_size <= weights_bytes + 512
        assert model.byte_size < 13312

    def test_pad_model_to_exact_size(self):
        model = random_acoustic_model(np.random.default_rng(7))
        padded = pad_model_to_size(model, 2000)
        assert padded.byte_size == 2000
        assert serialize_model(load_model(serialize_model(padded))) == serialize_model(padded)


FUZZ_MODELS = {
    "acoustic": serialize_model(random_acoustic_model(np.random.default_rng(93), hidden=6)),
    "embedding": serialize_model(make_random_embedding_model(
        FrontendConfig(num_channels=4), dim=5, hidden=6)),
}


def saturated_float_model(in_dim=1024, out_dim=20):
    """One linear layer whose offset products sum past 2**24 in every row."""
    rng = np.random.default_rng(92)
    unit = QuantParams(0.0, 1.0)  # zero point 0: offsets are the raw bytes
    weights = quantize(rng.uniform(0.8, 1.0, (out_dim, in_dim)), unit)
    layer = EncoderLayer(weights, np.zeros(out_dim, dtype=np.int32), unit, Activation.NONE)
    return EncoderModel([layer], in_dim, 1, out_dim, ModelKind.EMBEDDING)


class TestForward:
    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(8)
        model = random_acoustic_model(rng)
        frames = rng.uniform(-5, 5, size=(20, 8))
        for mode in AccumMode:
            for post in encoder_forward(frames, model, mode):
                total = post.keyword_posteriors.sum() + post.filler_posterior
                assert total == pytest.approx(1.0, abs=1e-5)
                assert np.all(post.keyword_posteriors >= 0.0)
                assert post.filler_posterior >= 0.0

    def test_large_bias_saturates_unit(self):
        # near-zero weights, big positive bias on unit 1: softmax pins ~1
        in_params = QuantParams(-5.0, 5.0)
        weights = np.zeros((4, 8))
        weights[0, 0] = 1.0  # keep the weight range sane for the bias scale
        bias = np.array([0.0, 25.0, 0.0, 0.0])
        layer = quantize_layer(weights, bias, in_params, Activation.SOFTMAX)
        model = EncoderModel([layer], 8, 1, 3)
        rng = np.random.default_rng(9)
        out = encoder_forward(rng.uniform(-5, 5, (3, 8)), model, AccumMode.FIXED)
        for post in out:
            assert post.keyword_posteriors[1] > 0.999

    def test_one_posterior_per_eligible_frame(self):
        rng = np.random.default_rng(10)
        model = random_acoustic_model(rng, stacked=3)
        frames = rng.uniform(-5, 5, size=(10, 8))
        out = encoder_forward(frames, model)
        assert [p.frame_index for p in out] == list(range(2, 10))

    @pytest.mark.parametrize("frames", [[], np.zeros((0, 8))], ids=["list", "array"])
    def test_no_frames_give_no_posteriors(self, frames):
        assert encoder_forward(frames, random_acoustic_model(np.random.default_rng(19))) == []

    def test_one_dimensional_array_names_the_frame_shape(self):
        model = random_acoustic_model(np.random.default_rng(20))
        with pytest.raises(DimensionError, match=r"shape \(8,\) are not \[T, 8\]"):
            encoder_forward(np.zeros(8), model)

    def test_embedding_model_rejected(self):
        with pytest.raises(DimensionError, match="the encoder model is not an acoustic model"):
            encoder_forward(np.zeros((4, 32)), make_random_embedding_model(FrontendConfig()))

    def test_fixed_vs_float_posterior_gap(self):
        rng = np.random.default_rng(11)
        model = random_acoustic_model(rng)
        frames = rng.uniform(-5, 5, size=(1000, 8))
        fixed = encoder_forward(frames, model, AccumMode.FIXED)
        flt = encoder_forward(frames, model, AccumMode.FLOAT)
        worst = 0.0
        for a, b in zip(fixed, flt):
            gap = np.abs(
                np.append(a.keyword_posteriors, a.filler_posterior)
                - np.append(b.keyword_posteriors, b.filler_posterior)
            ).max()
            worst = max(worst, gap)
        assert worst <= 0.05

    def test_fixed_forward_bit_identical(self):
        rng = np.random.default_rng(12)
        model = random_acoustic_model(rng)
        frames = rng.uniform(-5, 5, size=(50, 8))
        a = np.stack([p.keyword_posteriors for p in encoder_forward(frames, model, AccumMode.FIXED)])
        b = np.stack([p.keyword_posteriors for p in encoder_forward(frames, model, AccumMode.FIXED)])
        assert a.tobytes() == b.tobytes()

    def test_channel_mismatch_raises(self):
        model = random_acoustic_model(np.random.default_rng(13))
        with pytest.raises(DimensionError):
            encoder_forward(np.zeros((5, 9)), model)

    def test_forward_vector_dimension_check(self):
        model = random_acoustic_model(np.random.default_rng(14))
        with pytest.raises(DimensionError):
            forward_vector(model, np.zeros(7))

    @pytest.mark.parametrize("mode", list(AccumMode))
    def test_stacked_rows_equal_one_row_calls(self, mode):
        rng = np.random.default_rng(16)
        frontend = FrontendConfig()
        models = [random_acoustic_model(rng, stacked=s) for s in (1, 2, 3)] + [
            make_tone_acoustic_model(frontend, 3, stacked_frames=2),
            make_random_embedding_model(frontend),
        ]
        for model in models:
            rows = rng.uniform(-40, 40, size=(37, model.input_dim))
            stacked = forward_vector(model, rows, mode)
            one_by_one = np.stack([forward_vector(model, row, mode) for row in rows])
            assert stacked.tobytes() == one_by_one.tobytes()
            assert forward_vector(model, rows[:0], mode).shape == (0, stacked.shape[1])

    def test_saturated_1024_wide_float_layer_is_exact(self):
        # offset products near 255**2 summed over 1024 inputs pass 2**24,
        # where a float32 accumulator would round differently per blocking
        model = saturated_float_model()
        rows = np.random.default_rng(17).uniform(0.8, 1.2, size=(64, 1024))
        flt = forward_vector(model, rows, AccumMode.FLOAT)
        one_by_one = np.stack([forward_vector(model, row, AccumMode.FLOAT) for row in rows])
        assert flt.tobytes() == one_by_one.tobytes()
        # zero bias: the exact float sum times the scale is the integer path
        assert flt.tobytes() == forward_vector(model, rows, AccumMode.FIXED).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 16), (4, 15), (4, 17), ()])
    def test_input_must_be_one_row_or_a_stack(self, shape):
        model = random_acoustic_model(np.random.default_rng(18))
        with pytest.raises(DimensionError):
            forward_vector(model, np.zeros(shape))

    def test_model_shareable_across_threads(self):
        # one loaded model, many threads: identical results to serial runs
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(15)
        model = random_acoustic_model(rng)
        inputs = [rng.uniform(-5, 5, 16) for _ in range(64)]
        serial = [forward_vector(model, x, AccumMode.FIXED) for x in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda x: forward_vector(model, x, AccumMode.FIXED), inputs
            ))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


DETECTOR_SETUPS = {
    "fixed": (FrontendConfig(arithmetic_mode=ArithmeticMode.FIXED_POINT), AccumMode.FIXED),
    "float": (FrontendConfig(), AccumMode.FLOAT),
    "float-tracker": (FrontendConfig(noise_suppression_enabled=True), AccumMode.FLOAT),
}
# the tracker's window in the detector tests: 20 frames, short against the 0.9 s clip
DETECTOR_NOISE_WINDOW_FRAMES = 20
DETECTOR_DECODER = DecoderConfig(3, smoothing_window_frames=7, score_window_frames=30)


@lru_cache(maxsize=None)
def tone_model(frontend, stacked):
    return make_tone_acoustic_model(frontend, 3, stacked_frames=stacked)


@lru_cache(maxsize=None)
def detector_clip():
    """About 0.9 s: noise, a short tone keyword, noise."""
    rng = np.random.default_rng(19)
    keyword, _ = synth_keyword_audio(FrontendConfig(), 3, unit_ms=60)
    return np.concatenate([synth_noise(3000, rng), keyword, synth_noise(2000, rng)])


@st.composite
def detector_splits(draw):
    """Push boundaries over the clip: one sample per push, the whole clip,
    or random push sizes."""
    total = len(detector_clip())
    kind = draw(st.sampled_from(["samples", "whole", "random"]))
    if kind == "samples":
        return list(range(total + 1))
    if kind == "whole":
        return [0, total]
    sizes = draw(st.lists(st.integers(1, 4000), max_size=30))
    return [0, *(c for c in np.cumsum(sizes).tolist() if c < total), total]


class TestLayerConstants:
    # sha256 of forward_vector's bytes, recorded before layers kept their constants
    DIGESTS = {
        AccumMode.FIXED: "6faa8ab39ac2bb4bda69801c0f5f2fe3e36646aa70d646bc9760ba5be775dd31",
        AccumMode.FLOAT: "b87d4cc8c2b8d29669198796b5d5a77b87e60ca31e0541055762618d1da5fce0",
    }

    @pytest.mark.parametrize("mode", list(AccumMode))
    def test_relu_softmax_bytes_match_the_recorded_digest(self, mode):
        rng = np.random.default_rng(19)
        model = random_acoustic_model(rng)
        # past the +-5 input range, so the quantizer clips too
        rows = rng.uniform(-7, 7, size=(200, model.input_dim))
        out = forward_vector(model, rows, mode)
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.DIGESTS[mode]

    def test_layer_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(20)
        weights = rng.normal(0, 0.5, (4, 8))
        w_params = compute_quant_params(weights)
        weights_q = quantize(weights, w_params)
        bias_q = quantize_bias(rng.normal(0, 0.5, 4), w_params.scale * 0.1)
        layer = EncoderLayer(weights_q, bias_q, QuantParams(-5.0, 5.0), Activation.RELU)
        for array in (layer.weights.data, layer.bias_q, layer.offset_weights):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.bias_q = bias_q
        before = layer.offset_weights.copy()
        weights_q.data[:] = 0
        bias_q[:] = 0
        assert np.array_equal(layer.offset_weights, before)
        assert layer.weights.data.any() and layer.bias_q.any()


class TestStacking:
    def test_stack_order_oldest_first(self):
        frames = np.arange(12, dtype=np.float64).reshape(4, 3)
        stacked = stack_frames(frames, 2)
        assert stacked.shape == (3, 6)
        assert list(stacked[0]) == [0, 1, 2, 3, 4, 5]
        assert list(stacked[2]) == [6, 7, 8, 9, 10, 11]

    def test_too_few_frames_yield_empty(self):
        assert stack_frames(np.zeros((2, 3)), 4).shape == (0, 12)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(DETECTOR_SETUPS)), st.integers(1, 3), detector_splits())
    def test_detector_splits_equal_whole_clip_and_batch(self, setup, stacked, cuts):
        frontend, mode = DETECTOR_SETUPS[setup]
        with mock.patch.object(frontend_module, "NOISE_WINDOW_FRAMES",
                               DETECTOR_NOISE_WINDOW_FRAMES):
            model = tone_model(frontend, stacked)
            clip = detector_clip()
            whole = DetectorStream(frontend, model, DETECTOR_DECODER, mode).push(clip)
            det = DetectorStream(frontend, model, DETECTOR_DECODER, mode)
            split = []
            for lo, hi in zip(cuts, cuts[1:]):
                split.extend(det.push(clip[lo:hi]))
            assert [(f, h.score) for f, h in split] == [(f, h.score) for f, h in whole]
            posteriors = encoder_forward(compute_features(clip, frontend), model, mode)
            batch = batch_frame_scores(
                np.array([p.keyword_posteriors for p in posteriors]), DETECTOR_DECODER)
            assert [f for f, _ in whole] == list(range(stacked - 1, stacked - 1 + len(batch)))
            assert np.array_equal([h.score for _, h in whole], batch)


class TestDescription:
    DESC = """
    # two-layer acoustic model
    model acoustic
    channels 4
    stacked 1
    units 2
    layer relu 4 3
    input_range -10 10
    weights
    0.5 -0.25 0.0 1.0
    -1.0 0.75 0.5 0.0
    0.0 0.0 1.0 -0.5
    bias
    0.1 -0.2 0.0
    layer softmax 3 3
    input_range 0 20
    weights
    1.0 0.0 0.0
    0.0 1.0 0.0
    0.0 0.0 1.0
    bias
    0.0 0.0 0.5
    """

    def test_build_and_run(self):
        model = build_model_from_description(self.DESC)
        assert model.num_units == 2
        assert model.byte_size == len(serialize_model(model))
        probs = forward_vector(model, np.array([1.0, 2.0, -1.0, 0.5]))
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_bad_activation_rejected(self):
        with pytest.raises(ValueError):
            build_model_from_description(self.DESC.replace("layer relu", "layer gelu"))

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            build_model_from_description(self.DESC.replace("units 2", ""))

    @pytest.mark.parametrize("cut, expected", [
        ("weights\n    1.0 0.0 0.0", "expected 'weights' and 0 values, but the text ended"),
        ("0.0 0.0 1.0\n    bias", "expected a row of 3 values, but the text ended"),
        ("0.0 0.0 0.5", "expected a row of 3 values, but the text ended"),
    ], ids=["before_weights", "in_weight_rows", "before_bias_row"])
    def test_early_end_names_what_was_expected(self, cut, expected):
        with pytest.raises(ValueError, match=expected):
            build_model_from_description(self.DESC[: self.DESC.index(cut)])

    @pytest.mark.parametrize("old, new, expected", [
        ("model acoustic", "model", r"line 3: expected 'model acoustic\|embedding'"),
        ("channels 4", "channels four", "line 4: invalid literal for int.*'four'"),
        ("layer relu 4 3", "layer relu 4", "line 7: expected 'layer ACT IN OUT'"),
        ("input_range -10 10", "input_range -1", "line 8: expected 'input_range' and 2 values"),
        ("0.1 -0.2 0.0", "0.1 -0.2", "line 14: expected a row of 3 values"),
        ("0.1 -0.2 0.0", "0.1 -0.2 x", "line 14: could not convert string to float: 'x'"),
        ("units 2", "unit 2", "line 6: unknown directive 'unit'"),
    ], ids=["bare_model", "channels_not_integer", "layer_missing_out", "input_range_one_value",
            "bias_row_short", "bias_not_number", "unknown_directive"])
    def test_malformed_line_is_named(self, old, new, expected):
        with pytest.raises(ValueError, match=expected):
            build_model_from_description(self.DESC.replace(old, new))


@st.composite
def descriptions(draw):
    """Small text descriptions, many of which break a rule. A layer's values
    are moderate, or mixed with any float (NaN, infinities, float32 overflow,
    subnormals); its input range is moderate, spans up to 1e-30..1e30, or is
    any two of its values."""
    kind = draw(st.sampled_from(["acoustic", "embedding"]))
    channels, stacked, units = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    widths = [channels * stacked, *draw(st.lists(st.integers(1, 3), max_size=2)),
              units + (kind == "acoustic")]
    moderate = st.floats(-10, 10)
    lines = [f"model {kind}", f"channels {channels}", f"stacked {stacked}", f"units {units}"]
    for k, (in_dim, out_dim) in enumerate(zip(widths, widths[1:])):
        last = k == len(widths) - 2
        act = "softmax" if last and kind == "acoustic" else draw(st.sampled_from(["none", "relu"]))
        value = draw(st.sampled_from([moderate, moderate, st.one_of(moderate, st.floats())]))
        lo, hi = draw(st.one_of(
            st.tuples(moderate, st.floats(0.01, 20)).map(lambda r: (r[0], r[0] + r[1])),
            st.tuples(st.just(0.0), st.floats(1e-30, 1e30)),
            st.tuples(value, value),
        ))
        weights = draw(st.lists(st.lists(value, min_size=in_dim, max_size=in_dim),
                                min_size=out_dim, max_size=out_dim))
        # or a bias within 2**18 of int32's maximum in the accumulator scale,
        # where only the worst case over the weights decides
        flat = [w for row in weights for w in row]
        scale = (max(flat) - min(flat)) / 255 * (hi - lo) / 255
        edge = st.integers(2**31 - 2**18, 2**31 - 1).map(lambda q: q * scale)
        bias = draw(st.lists(st.one_of(value, st.floats(-1e12, 1e12), edge),
                             min_size=out_dim, max_size=out_dim))
        lines += [f"layer {act} {in_dim} {out_dim}", f"input_range {lo!r} {hi!r}", "weights",
                  *(" ".join(map(repr, row)) for row in weights), "bias", " ".join(map(repr, bias))]
    return "\n".join(lines)


class TestDescriptionLoads:
    @settings(max_examples=300, deadline=None)
    @given(descriptions())
    def test_every_accepted_description_loads_and_round_trips(self, text):
        try:
            model = build_model_from_description(text)
        except ValueError:
            return
        data = serialize_model(model)
        assert serialize_model(load_model(data)) == data
