import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwscascade.encoder import Activation, EncoderLayer, EncoderModel, ModelKind, forward_vector
from kwscascade.quantize import (
    LEVELS,
    AccumMode,
    AccumulatorOverflowError,
    DegenerateRangeError,
    DimensionError,
    QuantParams,
    QuantizedTensor,
    compute_quant_params,
    dequantize,
    fixed_accumulate,
    quantize,
    quantize_bias,
    requantize_fixed,
    round_half_away,
)


class TestQuantParams:
    def test_symmetric_range(self):
        p = compute_quant_params([-1.0, 1.0])
        assert p.min_val == -1.0 and p.max_val == 1.0
        assert p.scale == pytest.approx(2.0 / 255.0)
        # -min/scale = 127.5 rounds half away from zero to 128
        assert p.zero_point == 128

    def test_positive_range(self):
        p = compute_quant_params([0.0, 2.55])
        assert p.scale == pytest.approx(0.01)
        assert p.zero_point == 0

    def test_all_equal_is_degenerate(self):
        with pytest.raises(DegenerateRangeError):
            compute_quant_params([5.0, 5.0, 5.0])

    def test_empty_is_degenerate(self):
        with pytest.raises(DegenerateRangeError):
            compute_quant_params([])

    def test_min_not_below_max_rejected(self):
        with pytest.raises(DegenerateRangeError):
            QuantParams(1.0, 1.0)

    def test_range_need_not_straddle_zero(self):
        assert QuantParams(3.0, 4.0).zero_point == 0
        assert QuantParams(-4.0, -3.0).zero_point == 255


class TestRounding:
    def test_half_away_from_zero(self):
        vals = round_half_away(np.array([2.5, -2.5, 0.5, -0.5, 1.4, -1.4]))
        assert list(vals) == [3.0, -3.0, 1.0, -1.0, 1.0, -1.0]


class TestQuantizeDequantize:
    def test_endpoints_map_to_0_and_255(self):
        p = QuantParams(-1.0, 1.0)
        q = quantize(np.array([-1.0, 1.0]), p)
        assert list(q.data) == [0, 255]

    def test_zero_maps_to_128_on_symmetric_range(self):
        p = QuantParams(-1.0, 1.0)
        assert quantize(np.array([0.0]), p).data[0] == 128

    def test_out_of_range_values_clamp(self):
        p = QuantParams(-1.0, 1.0)
        q = quantize(np.array([-5.0, 5.0]), p)
        assert list(q.data) == [0, 255]

    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lo = rng.uniform(-10, 9)
            hi = lo + rng.uniform(0.1, 20)
            p = QuantParams(lo, hi)
            values = rng.uniform(lo, hi, size=200)
            err = np.abs(dequantize(quantize(values, p)) - values)
            assert err.max() <= p.scale / 2 + 1e-12

    def test_endpoint_round_trip_within_one_step(self):
        p = QuantParams(-3.7, 12.9)
        back = dequantize(quantize(np.array([p.min_val, p.max_val]), p))
        assert abs(back[0] - p.min_val) <= p.scale
        assert abs(back[1] - p.max_val) <= p.scale

    def test_monotone(self):
        rng = np.random.default_rng(11)
        p = QuantParams(-2.0, 3.0)
        values = np.sort(rng.uniform(-3, 4, size=1000))
        q = quantize(values, p).data.astype(int)
        assert np.all(np.diff(q) >= 0)


def matvec(weights, inputs, bias_q, mode):
    """Dequantized ``weights`` times ``inputs`` plus bias, as a one-layer
    linear model computes it: the layer's accumulator times its combined
    scale, in ``mode``."""
    out_dim, in_dim = weights.shape
    layer = EncoderLayer(weights, bias_q, inputs.params, Activation.NONE)
    model = EncoderModel([layer], in_dim, 1, out_dim, ModelKind.EMBEDDING)
    return forward_vector(model, dequantize(inputs), mode)


class TestMatvec:
    def _quantized_identity(self, n, value=1.0):
        w_params = QuantParams(0.0, value)
        return quantize(np.eye(n) * value, w_params)

    def test_identity_weights_recover_input(self):
        w = self._quantized_identity(4)
        x_params = QuantParams(-2.0, 2.0)
        x_vals = np.array([0.5, -1.0, 1.5, 0.0])
        x = quantize(x_vals, x_params)
        bias = quantize_bias(np.zeros(4), w.params.scale * x_params.scale)
        for mode in AccumMode:
            out = matvec(w, x, bias, mode)
            assert np.abs(out - x_vals).max() <= 2 * x_params.scale

    def test_zero_weights_yield_bias_exactly(self):
        w_params = QuantParams(-1.0, 1.0)
        w = quantize(np.zeros((3, 4)), w_params)
        x_params = QuantParams(0.0, 1.0)
        x = quantize(np.array([0.3, 0.6, 0.9, 0.1]), x_params)
        combined = w_params.scale * x_params.scale
        bias_q = np.array([100, -200, 0], dtype=np.int32)
        out = matvec(w, x, bias_q, AccumMode.FIXED)
        assert np.array_equal(out, bias_q.astype(np.float64) * combined)

    def test_fixed_path_is_deterministic(self):
        rng = np.random.default_rng(2)
        w = quantize(rng.normal(size=(8, 16)), QuantParams(-3.0, 3.0))
        x = quantize(rng.normal(size=16), QuantParams(-3.0, 3.0))
        bias = quantize_bias(rng.normal(size=8), w.params.scale * x.params.scale)
        a = matvec(w, x, bias, AccumMode.FIXED)
        b = matvec(w, x, bias, AccumMode.FIXED)
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch_raises(self):
        w = quantize(np.zeros((3, 4)), QuantParams(-1.0, 1.0))
        x = quantize(np.zeros(5), QuantParams(-1.0, 1.0))
        with pytest.raises(DimensionError):
            matvec(w, x, np.zeros(3, dtype=np.int32), AccumMode.FIXED)

    def test_fixed_vs_float_close(self):
        rng = np.random.default_rng(4)
        w = quantize(rng.normal(size=(16, 32)), QuantParams(-3.0, 3.0))
        bias = quantize_bias(rng.normal(size=16), w.params.scale * QuantParams(-4.0, 4.0).scale)
        x_params = QuantParams(-4.0, 4.0)
        for _ in range(20):
            x = quantize(rng.normal(size=32), x_params)
            fixed = matvec(w, x, bias, AccumMode.FIXED)
            flt = matvec(w, x, bias, AccumMode.FLOAT)
            assert np.abs(fixed - flt).max() <= 1e-3


INT32_MAX = 2**31 - 1


def int64_accumulate(layer, inputs):
    """The oracle for fixed_accumulate: sum (x - z_x)(w - z_w) + b in int64."""
    x = inputs.data.astype(np.int64) - inputs.params.zero_point
    w = layer.weights.data.astype(np.int64) - layer.weights.params.zero_point
    return x @ w.T + layer.bias_q


WIDEST = INT32_MAX // (LEVELS * LEVELS)  # 33025 full-scale weights fit one accumulator


def zero_point_params(zero_point):
    """A range whose zero point is exactly ``zero_point`` (its scale is 1)."""
    return QuantParams(-zero_point, LEVELS - zero_point)


@st.composite
def accumulator_cases(draw):
    """A layer and uint8 inputs, one row or a stack that spans 16-row blocks:
    random within the layer's int32 headroom, or a layer exactly at the
    int32 bound driven by the inputs that reach it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # wide layers take partial sums far past float32's 2**24, up to 2**31
    in_dim = draw(st.one_of(st.integers(1, 300), st.integers(30000, WIDEST)))
    out_dim, rows = draw(st.integers(1, 8)), draw(st.integers(0, 40))
    shape = (in_dim,) if rows == 0 else (rows, in_dim)
    weights = rng.integers(0, LEVELS, (out_dim, in_dim), endpoint=True)
    at_bound = draw(st.booleans())
    zero_points = st.sampled_from([0, LEVELS]) if at_bound else st.integers(0, LEVELS)
    w_zero, x_zero = draw(zero_points), draw(zero_points)
    headroom = INT32_MAX - LEVELS * np.abs(weights - w_zero).sum(axis=1)
    if at_bound:
        # each (x - z_x)(w - z_w) is 255 |w - z_w| with the bias's sign, so |acc| = INT32_MAX
        x = np.full(shape, LEVELS - x_zero)
        bias = np.sign(LEVELS - 2 * x_zero) * np.sign(LEVELS - 2 * w_zero) * headroom
    else:
        x = rng.integers(0, LEVELS, shape, endpoint=True)
        bias = rng.integers(-headroom, headroom, endpoint=True)
    layer = EncoderLayer(QuantizedTensor(weights, zero_point_params(w_zero)), bias,
                         zero_point_params(x_zero), Activation.NONE)
    return layer, QuantizedTensor(x, layer.input_params), at_bound


class TestAccumulatorOracle:
    @settings(max_examples=200, deadline=None)
    @given(accumulator_cases())
    def test_fixed_accumulate_equals_the_int64_oracle(self, case):
        layer, inputs, at_bound = case
        acc = fixed_accumulate(layer.offset_weights, inputs, layer.bias_q)
        expected = int64_accumulate(layer, inputs)
        assert acc.dtype == np.int64 and acc.shape == expected.shape
        assert np.array_equal(acc, expected)
        assert np.all(np.abs(acc) == INT32_MAX) if at_bound else np.all(np.abs(acc) <= INT32_MAX)

    def test_worst_case_inputs_reach_the_bound_exactly(self):
        weights = QuantizedTensor(np.full((2, WIDEST), LEVELS), zero_point_params(0))
        bias = np.full(2, -(INT32_MAX - LEVELS * LEVELS * WIDEST))
        layer = EncoderLayer(weights, bias, zero_point_params(LEVELS), Activation.NONE)
        inputs = QuantizedTensor(np.zeros((17, WIDEST)), layer.input_params)  # each x - z_x is -255
        acc = fixed_accumulate(layer.offset_weights, inputs, layer.bias_q)
        assert np.array_equal(acc, int64_accumulate(layer, inputs))
        assert np.all(acc == -INT32_MAX)


class TestBias:
    def test_bias_quantizes_to_combined_scale(self):
        combined = 0.001
        bias_q = quantize_bias(np.array([0.5, -0.25]), combined)
        assert list(bias_q) == [500, -250]
        assert bias_q.dtype == np.int32

    def test_oversized_bias_rejected(self):
        with pytest.raises(AccumulatorOverflowError):
            quantize_bias(np.array([1e7]), 1e-6)


class TestRequantizeFixed:
    def test_matches_float_requantization_within_one_step(self):
        rng = np.random.default_rng(9)
        out_params = QuantParams(-1.0, 4.0)
        for _ in range(200):
            combined = 10.0 ** rng.uniform(-6, -2)
            acc = rng.integers(-(2**30), 2**30, size=16)
            q = requantize_fixed(acc, combined, out_params)
            real = acc * combined
            q_float = np.clip(
                round_half_away((real - out_params.min_val) / out_params.scale), 0, 255
            )
            assert np.abs(q.astype(int) - q_float.astype(int)).max() <= 1
