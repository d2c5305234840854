import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kwscascade import fixedpoint
from kwscascade.fixedpoint import (
    _log2_fraction_exact,
    _stages,
    LN2_Q16,
    TWIDDLE_FRACT_BITS,
    LOG_FRACT_BITS,
    BUTTERFLY_BITS,
    FixedPointOverflowError,
    fft_fixed,
    fixed_ln,
    power_spectrum_fixed,
    quantize_fract,
    rshift_round,
)
from kwscascade.frontend import ArithmeticMode, FrontendConfig, compute_features


def fft_fixed_reference(samples):
    """Oracle: the radix-2 butterflies in int64 with the shift-and-round rule."""
    n = len(samples)
    bits = n.bit_length() - 1
    rev = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(n)]
    ang = -2.0 * np.pi * np.arange(n // 2) / n
    wre_full = quantize_fract(np.cos(ang), TWIDDLE_FRACT_BITS)
    wim_full = quantize_fract(np.sin(ang), TWIDDLE_FRACT_BITS)
    re = np.asarray(samples, dtype=np.int64)[rev]
    im = np.zeros(n, dtype=np.int64)
    m = 1
    while m < n:
        wre = wre_full[:: n // (2 * m)]
        wim = wim_full[:: n // (2 * m)]
        re2 = re.reshape(-1, 2, m)
        im2 = im.reshape(-1, 2, m)
        a_re, b_re = re2[:, 0, :], re2[:, 1, :]
        a_im, b_im = im2[:, 0, :], im2[:, 1, :]
        t_re = rshift_round(wre * b_re - wim * b_im, TWIDDLE_FRACT_BITS)
        t_im = rshift_round(wre * b_im + wim * b_re, TWIDDLE_FRACT_BITS)
        sum_re, sum_im = rshift_round(a_re + t_re, 1), rshift_round(a_im + t_im, 1)
        dif_re, dif_im = rshift_round(a_re - t_re, 1), rshift_round(a_im - t_im, 1)
        re2[:, 0, :], re2[:, 1, :] = sum_re, dif_re
        im2[:, 0, :], im2[:, 1, :] = sum_im, dif_im
        m *= 2
    return re, im


def fixed_ln_reference(value):
    """Scalar oracle: the same recurrence on one Python int."""
    v = int(value)
    if v <= 0:
        raise ValueError("fixed_ln requires a positive integer")
    msb = v.bit_length() - 1
    x = v << (31 - msb) if msb <= 31 else v >> (msb - 31)
    frac = 0
    for _ in range(LOG_FRACT_BITS):
        x = (x * x) >> 31
        frac <<= 1
        if x >= (1 << 32):
            x >>= 1
            frac |= 1
    log2_q = (msb << LOG_FRACT_BITS) | frac
    return (log2_q * LN2_Q16) >> LOG_FRACT_BITS


INT64_MAX = 2**63 - 1
# powers of two and their neighbours below, where an inexact MSB would slip
EDGE_VALUES = [1 << k for k in range(63)] + [(1 << k) - 1 for k in range(1, 64)]


def near_step(msb, step, offset, low_bits):
    """A positive int64 with this MSB whose Q31 mantissa lies ``offset``
    from the first one at or above Q16 step ``step`` of log2, around where
    fixed_ln's float path hands over to its recurrence; ``low_bits`` fill
    the bits below the mantissa."""
    x = math.ceil(2 ** (31 + step / (1 << LOG_FRACT_BITS))) + offset
    x = min(max(x, 1 << 31), (1 << 32) - 1)
    if msb < 31:
        return x >> (31 - msb)
    return (x << (msb - 31)) | (low_bits & ((1 << (msb - 31)) - 1))


NEAR_STEP = st.builds(near_step, st.integers(0, 62), st.integers(0, (1 << LOG_FRACT_BITS) - 1),
                      st.integers(-3, 3), st.integers(0, INT64_MAX))
POSITIVE_INT64 = st.one_of(st.integers(1, INT64_MAX), st.sampled_from(EDGE_VALUES),
                           st.integers(1, 1 << 20), NEAR_STEP)
SHAPES = st.sampled_from([(), (0,), (32,), (7, 32), (0, 32), (3, 0)])

LANE = 2 ** (BUTTERFLY_BITS - 1) - 1
FFT_SIZES = st.sampled_from([1 << k for k in range(11)])  # 1 ... 1024


@st.composite
def fft_inputs(draw):
    """A power-of-two frame: random, sparse, int16 full-scale or at the lane edge."""
    n = draw(FFT_SIZES)
    kind = draw(st.sampled_from(["random", "sparse", "full_scale", "lane_edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.integers(-LANE, LANE, n, endpoint=True)
    if kind == "sparse":
        return np.where(rng.random(n) < 0.05, rng.integers(-LANE, LANE, n, endpoint=True), 0)
    if kind == "full_scale":
        return rng.choice(np.array([-32768, 32767]), n)
    return rng.choice(np.array([-LANE, LANE]), n)


class TestRounding:
    def test_round_half_up_positive_and_negative(self):
        assert rshift_round(5, 1) == 3   # 2.5 -> 3
        assert rshift_round(-5, 1) == -2  # -2.5 -> -2 (round toward +inf)
        assert rshift_round(4, 2) == 1
        assert rshift_round(7, 2) == 2

    def test_negative_shift_is_left_shift(self):
        assert rshift_round(3, -2) == 12

    def test_works_on_arrays(self):
        out = rshift_round(np.array([5, -5, 100], dtype=np.int64), 1)
        assert list(out) == [3, -2, 50]


class TestQuantizeFract:
    def test_unity_is_exact(self):
        q = quantize_fract(np.array([1.0, -1.0, 0.0]), TWIDDLE_FRACT_BITS)
        assert list(q) == [1 << 15, -(1 << 15), 0]


class TestFixedFft:
    def test_matches_numpy_dft_scaled_by_n(self):
        rng = np.random.default_rng(0)
        for n in (64, 256, 512):
            x = rng.integers(-32768, 32767, n)
            re, im = fft_fixed(x)
            ref = np.fft.fft(x.astype(np.float64)) / n
            err = np.abs((re + 1j * im) - ref)
            # per-stage rounding: error grows ~ sqrt(log2 n) half-steps
            assert err.max() < 3.0 * np.log2(n)

    def test_impulse_spectrum_is_flat(self):
        x = np.zeros(256, dtype=np.int64)
        x[0] = 25600
        re, im = fft_fixed(x)
        assert np.all(np.abs(re - 100) <= 1)
        assert np.all(np.abs(im) <= 1)

    def test_single_bin_tone(self):
        n = 512
        k = 37
        x = np.round(20000 * np.cos(2 * np.pi * k * np.arange(n) / n)).astype(np.int64)
        power = power_spectrum_fixed(x)
        assert int(np.argmax(power)) == k

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.integers(-32768, 32767, 512)
        a = fft_fixed(x)
        b = fft_fixed(x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft_fixed(np.zeros(100, dtype=np.int64))

    def test_full_scale_input_stays_in_lane(self):
        # worst-case amplitude must not overflow the 32-bit butterflies
        x = np.full(512, 32767, dtype=np.int64)
        x[1::2] = -32768
        fft_fixed(x)  # raises FixedPointOverflowError on violation

    @settings(max_examples=200, deadline=None)
    @given(fft_inputs())
    def test_equals_int64_reference_bit_for_bit(self, x):
        ref_re, ref_im = fft_fixed_reference(x)
        if max(np.abs(ref_re).max(), np.abs(ref_im).max()) > LANE:
            with pytest.raises(FixedPointOverflowError):
                fft_fixed(x)
            return
        re, im = fft_fixed(x)
        assert re.dtype == im.dtype == np.int64
        assert np.array_equal(re, ref_re) and np.array_equal(im, ref_im)

    @pytest.mark.parametrize("n", [1 << k for k in range(1, 11)])
    def test_each_stage_offsets_sums_by_3_2_and_differences_by_one_grid_step_less(self, n):
        # fft_fixed's single rounding per stage: floor((a + s + 3/2) / 2) and
        # floor((a - s + 3/2 - 2**-15) / 2), for every twiddle including 1 and -j.
        # In constant geometry every stage writes its sums to the first half and
        # its differences to the second, so one offset vector serves them all,
        # and the stage of half size m repeats each of its m twiddles n/(2m) times
        twiddles, offset = _stages(n)
        half = n // 2
        assert twiddles.shape == (n.bit_length() - 1, half)
        for stage, row in enumerate(twiddles):
            m = 1 << stage
            ang = -2.0 * np.pi * np.arange(m) / (2 * m)
            w = (quantize_fract(np.cos(ang), TWIDDLE_FRACT_BITS)
                 + 1j * quantize_fract(np.sin(ang), TWIDDLE_FRACT_BITS))
            assert np.array_equal(row, np.repeat(w * 2.0**-TWIDDLE_FRACT_BITS, half // m))
        assert offset.shape == (n,)
        assert np.all(offset[:half] == 1.5 + 1.5j)
        assert np.all(offset[half:] == (1.5 - 2.0**-TWIDDLE_FRACT_BITS) * (1 + 1j))

    @pytest.mark.parametrize("n", [1 << k for k in range(2, 11)])
    def test_rounding_ties_equal_int64_reference(self, n):
        # x[0] and x[1] alone make every earlier stage's values exact constants:
        # a = d on the even half and b = c on the odd half. The last stage's
        # w * c then lands on a half-integer wherever c * w (Q15) is 2**14
        # modulo 2**15, and odd and even d give both parities of a +- t.
        half = n // 2
        w_q15 = np.stack([quantize_fract(np.cos(-2 * np.pi * np.arange(half) / n), TWIDDLE_FRACT_BITS),
                          quantize_fract(np.sin(-2 * np.pi * np.arange(half) / n), TWIDDLE_FRACT_BITS)])
        ties = 0
        for c in (1 << 14, -(1 << 14), 3 << 13, -(3 << 13), 5 << 14):
            ties += int(np.count_nonzero(w_q15 * c % (1 << 15) == 1 << 14))
            for d in (0, 1, 2, 3, -1, -2):
                x = np.zeros(n, dtype=np.int64)
                x[0], x[1] = d * half, c * half
                re, im = fft_fixed(x)
                ref_re, ref_im = fft_fixed_reference(x)
                assert np.array_equal(re, ref_re) and np.array_equal(im, ref_im), (c, d)
        # n = 4 has twiddles 1 and -j only, whose products are integers
        assert ties > 0 or n == 4

    @pytest.mark.parametrize("bad", [LANE + 1, -LANE - 1, -(2**63), 2**63 - 1])
    def test_sample_outside_lane_raises(self, bad):
        x = np.zeros(64, dtype=np.int64)
        x[5] = bad
        with pytest.raises(FixedPointOverflowError):
            fft_fixed(x)


    @pytest.mark.parametrize("shape", [(), (4, 4), (2, 8), (1, 4)])
    def test_input_that_is_not_one_frame_raises(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            fft_fixed(np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("samples", [[0.5, 1.7, 2.2, -0.9], [0.0, 0.0, 0.0, np.nan],
                                         [0.0, np.inf, 0.0, 0.0], [1 + 1j, 0, 0, 0],
                                         [0, 0, 0, 2.0**63]])
    def test_non_integer_samples_raise(self, samples):
        with pytest.raises(ValueError, match="integer values"):
            fft_fixed(samples)

    def test_whole_floats_and_narrow_integers_give_the_int64_bits(self):
        x = np.random.default_rng(3).integers(-32768, 32767, 64)
        ref_re, ref_im = fft_fixed(x)
        for same in (x.astype(np.float64), x.astype(np.int16), x.tolist()):
            re, im = fft_fixed(same)
            assert np.array_equal(re, ref_re) and np.array_equal(im, ref_im)


class TestFixedLn:
    def test_matches_math_log(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            v = int(rng.integers(1, 2**55))
            approx = fixed_ln(v) / (1 << LOG_FRACT_BITS)
            assert approx == pytest.approx(math.log(v), abs=2e-4)

    def test_ln_one_is_zero(self):
        assert fixed_ln(1) == 0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fixed_ln(0)

    @pytest.mark.parametrize("values", [2.7, 0.5, np.nan, np.inf, [3, 2.5], True, "7"])
    def test_non_integer_values_raise(self, values):
        with pytest.raises(ValueError, match="integer values"):
            fixed_ln(values)

    def test_whole_floats_give_the_int64_bits(self):
        values = np.array([1, 2, 3, 12345, 2**40])
        assert fixed_ln(values.astype(np.float64)).tolist() == fixed_ln(values).tolist()
        assert fixed_ln(2.0) == fixed_ln(2) == LN2_Q16

    def test_monotone(self):
        values = [1, 2, 3, 10, 100, 12345, 2**20, 2**40]
        outs = [fixed_ln(v) for v in values]
        assert outs == sorted(outs)

    @settings(max_examples=150, deadline=None)
    @given(SHAPES.flatmap(lambda shape: arrays(np.int64, shape, elements=POSITIVE_INT64)))
    def test_array_equals_scalar_reference_elementwise(self, values):
        out = fixed_ln(values)
        assert out.shape == values.shape
        assert out.dtype == np.int64
        expected = [fixed_ln_reference(v) for v in values.ravel().tolist()]
        assert out.ravel().tolist() == expected

    def test_every_power_of_two_edge_matches_reference(self):
        values = np.array(EDGE_VALUES, dtype=np.int64)
        assert fixed_ln(values).tolist() == [fixed_ln_reference(v) for v in EDGE_VALUES]

    def test_every_q16_step_matches_the_recurrence(self):
        # each mantissa within 3 of a step, at five MSBs; above MSB 31 every
        # truncated bit is set, the furthest the mantissa falls below v
        values, expected = [], []
        steps = np.arange(1 << LOG_FRACT_BITS)
        for msb in (0, 20, 31, 40, 62):
            base = min(msb, 31)
            first = np.ceil(np.exp2(base + steps / (1 << LOG_FRACT_BITS))).astype(np.int64)
            v = np.unique((first[:, None] + np.arange(-3, 4)).ravel())
            v = v[(v >> base) == 1]
            x = v << (31 - base)
            if msb > 31:
                v = (v << (msb - 31)) | ((1 << (msb - 31)) - 1)
            values.append(v)
            expected.append((((msb << LOG_FRACT_BITS) | _log2_fraction_exact(x)) * LN2_Q16)
                            >> LOG_FRACT_BITS)
        values, expected = np.concatenate(values), np.concatenate(expected)
        assert np.array_equal(fixed_ln(values), expected)
        # the vectorised recurrence is the scalar oracle's
        sample = values[::9973].tolist()
        assert expected[::9973].tolist() == [fixed_ln_reference(v) for v in sample]

    def test_powers_of_two_and_silent_frames_never_fall_back(self, monkeypatch):
        def refuse(x):
            raise AssertionError(f"fixed_ln fell back on mantissas {x.tolist()}")

        monkeypatch.setattr(fixedpoint, "_log2_fraction_exact", refuse)
        powers = [v for v in EDGE_VALUES if v & (v - 1) == 0]
        assert fixed_ln(np.array(powers)).tolist() == [fixed_ln_reference(v) for v in powers]
        config = FrontendConfig(arithmetic_mode=ArithmeticMode.FIXED_POINT)
        silent = compute_features(np.zeros(4000, dtype=np.int16), config)
        assert len(silent) > 0
        with pytest.raises(AssertionError, match="fell back"):
            fixed_ln(near_step(40, 1000, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.int64, st.sampled_from([(1,), (32,), (4, 8)]), elements=POSITIVE_INT64),
        st.integers(0, 31),
        st.integers(-INT64_MAX - 1, 0),
    )
    def test_non_positive_anywhere_raises(self, values, where, bad):
        values.flat[where % values.size] = bad
        with pytest.raises(ValueError):
            fixed_ln(values)
