from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwscascade.fixedpoint import (MEL_FRACT_BITS, _bit_reverse_indices, _stages, fixed_ln,
                                   quantize_fract)
from kwscascade import frontend
from kwscascade.frontend import (
    _hann_window,
    _hann_window_q15,
    _log_mel_fixed,
    _mel_table_q15,
    ArithmeticMode,
    AudioChunk,
    ConfigError,
    FrontendConfig,
    FrontendStream,
    NoiseFloorTracker,
    compute_features,
    frame_audio,
    frame_end_sample,
    frame_timestamp_ms,
    mel_center_frequencies,
    mel_filterbank,
    num_frames_for,
    power_spectra,
    samples_to_ms,
)
from kwscascade.cascade import Cascade, CascadeConfig
from kwscascade.synthetic import make_tone_acoustic_model, speech_like_noise, synth_tone
from conftest import BLOCK_EDGE_LENGTHS, traced_peak_mb

FIXED = FrontendConfig(arithmetic_mode=ArithmeticMode.FIXED_POINT)
FLOAT = FrontendConfig()


def dft_filterbank_oracle(samples, config):
    """Direct DFT-matrix + filterbank log-mel, independent of the fft path."""
    n = config.fft_size
    frame = np.zeros(n)
    windowed = samples.astype(np.float64) * (
        0.5 - 0.5 * np.cos(2 * np.pi * np.arange(len(samples)) / (len(samples) - 1))
    )
    frame[: len(samples)] = windowed
    kidx = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(kidx, np.arange(n)) / n)
    power = np.abs(basis @ frame) ** 2
    energies = mel_filterbank(config) @ power
    return np.log(np.maximum(energies, config.log_floor))


def _cascade_push(samples):
    model = make_tone_acoustic_model(FLOAT, 3)
    return Cascade(CascadeConfig(frontend=FLOAT), model, model).push_audio(samples)


PCM_ENTRY_POINTS = {
    "AudioChunk": AudioChunk,
    "frame_audio": lambda samples: frame_audio(samples, FLOAT),
    "FrontendStream.push": lambda samples: FrontendStream(FLOAT).push(samples),
    "Cascade.push_audio": _cascade_push,
}


class TestAudioChunk:
    def test_accepts_full_int16_range(self):
        chunk = AudioChunk(np.array([-32768, 32767], dtype=np.int16))
        assert len(chunk) == 2

    @pytest.mark.parametrize("entry", list(PCM_ENTRY_POINTS))
    def test_out_of_range_or_non_finite_samples_rejected(self, entry):
        push = PCM_ENTRY_POINTS[entry]
        push(np.array([-32768.0, 0.0, 32767.0]))
        for bad in (np.array([0, 40000]), np.array([-32769, 0]), np.array([0.0, np.nan]),
                    np.array([np.inf, 0.0])):
            with pytest.raises(ConfigError, match="16-bit range"):
                push(bad)


class TestConfig:
    def test_defaults_valid(self):
        cfg = FrontendConfig()
        assert cfg.frame_samples == 400
        assert cfg.hop_samples == 160

    def test_fft_shorter_than_frame_rejected(self):
        with pytest.raises(ConfigError):
            FrontendConfig(fft_size=256)

    def test_fft_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            FrontendConfig(fft_size=500)

    def test_mel_range_checked(self):
        with pytest.raises(ConfigError):
            FrontendConfig(mel_low_hz=5000.0, mel_high_hz=400.0)

    def test_log_floor_must_be_finite_and_positive(self):
        for floor in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="log_floor"):
                FrontendConfig(log_floor=floor)

    def test_channel_bounds(self):
        with pytest.raises(ConfigError):
            FrontendConfig(num_channels=0)
        with pytest.raises(ConfigError):
            FrontendConfig(num_channels=129)


class TestFraming:
    def test_exact_frame_length_yields_one(self):
        assert len(frame_audio(np.zeros(400, dtype=np.int16), FLOAT)) == 1

    def test_one_sample_short_yields_zero(self):
        assert len(frame_audio(np.zeros(399, dtype=np.int16), FLOAT)) == 0

    def test_720_samples_yield_three_frames_at_hops(self):
        # impulse at 160 + 200 must land at offset 200 of frame 1
        samples = np.zeros(720, dtype=np.int16)
        samples[360] = 10000
        frames = frame_audio(samples, FLOAT)
        assert frames.shape == (3, 512)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * 200 / 399)
        assert frames[1, 200] == pytest.approx(10000 * window)
        assert frames[0, 360] == pytest.approx(10000 * (0.5 - 0.5 * np.cos(2 * np.pi * 360 / 399)))
        assert np.all(frames[2, 40 + 1 :] == 0.0) or frames[2, 40] != 0.0

    def test_count_law_random_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 5000))
            expected = 0 if n < 400 else (n - 400) // 160 + 1
            assert num_frames_for(n, FLOAT) == expected
            assert len(frame_audio(np.zeros(n, dtype=np.int16), FLOAT)) == expected

    def test_frames_zero_padded_to_fft_size(self):
        frames = frame_audio(np.full(400, 1000, dtype=np.int16), FLOAT)
        assert np.all(frames[0, 400:] == 0.0)


class TestFrameClock:
    def test_frame_k_ends_at_k_hops_plus_one_frame(self):
        cfg = FrontendConfig(frame_length_ms=30, hop_ms=15)
        ends = frame_end_sample(np.arange(4), cfg)
        assert ends.tolist() == [480, 720, 960, 1200]
        assert [frame_end_sample(k, cfg) for k in range(4)] == ends.tolist()
        assert frame_timestamp_ms(np.arange(4), cfg).tolist() == [30, 45, 60, 75]

    def test_samples_to_ms_rounds_as_round_does(self):
        # 8 samples is half a millisecond: ties go to the even millisecond
        positions = list(range(0, 4000)) + [2**40 + 8, 2**40 + 24, 10**15 + 8]
        expected = [round(n * 1000 / 16000) for n in positions]
        assert [samples_to_ms(n) for n in positions] == expected
        assert all(type(samples_to_ms(n)) is int for n in positions)
        assert samples_to_ms(np.array(positions, dtype=np.int64)).tolist() == expected


class TestLogMel:
    def test_all_zero_frame_hits_log_floor(self):
        (out,) = compute_features(np.zeros(400, dtype=np.int16), FLOAT)
        assert np.allclose(out.channels, np.log(FLOAT.log_floor))

    def test_sine_at_channel_center_wins_that_channel(self):
        centers = mel_center_frequencies(FLOAT)
        for ch in (4, 12, 20, 28):
            tone = synth_tone(centers[ch], 400, amplitude=8000.0)
            (out,) = compute_features(tone, FLOAT)
            assert int(np.argmax(out.channels)) == ch
            oracle = dft_filterbank_oracle(tone, FLOAT)
            assert int(np.argmax(oracle)) == ch
            assert np.allclose(out.channels, oracle, atol=1e-6)

    def test_no_nan_or_inf_on_any_input(self):
        rng = np.random.default_rng(3)
        for cfg in (FLOAT, FIXED):
            for samples in (
                np.zeros(800, dtype=np.int16),
                rng.integers(-32768, 32767, 800).astype(np.int16),
                np.full(800, 32767, dtype=np.int16),
            ):
                for frame in compute_features(samples, cfg):
                    assert np.all(np.isfinite(frame.channels))

    def test_fixed_mode_output_at_least_float_floor(self):
        frames = compute_features(np.zeros(800, dtype=np.int16), FIXED)
        for frame in frames:
            assert np.all(frame.channels >= np.log(FIXED.log_floor))

    def test_timestamps_and_indices(self):
        frames = compute_features(np.zeros(800, dtype=np.int16), FLOAT)
        assert [f.frame_index for f in frames] == [0, 1, 2]
        assert [frame_timestamp_ms(f.frame_index, FLOAT) for f in frames] == [25, 35, 45]


class TestMelFilterbank:
    def test_interior_bins_have_weight_in_unit_interval(self):
        for channels in (32, 40):
            cfg = FrontendConfig(num_channels=channels)
            fb = mel_filterbank(cfg)
            bin_hz = np.arange(cfg.fft_size // 2 + 1) * 16000 / cfg.fft_size
            totals = fb.sum(axis=0)
            interior = (bin_hz > cfg.mel_low_hz) & (bin_hz < cfg.mel_high_hz)
            assert np.all(totals[interior] > 0.0)
            assert np.all(totals[interior] <= 1.0 + 1e-9)

    def test_every_filter_has_positive_mass_up_to_128_channels(self):
        for channels in (1, 32, 40, 64, 128):
            fb = mel_filterbank(FrontendConfig(num_channels=channels))
            assert np.all(fb.sum(axis=1) > 0.0)

    def test_a_caller_cannot_change_the_cached_matrix(self):
        # a config no other test uses: were the write to land, it would
        # change every later feature of this config in the process
        cfg = FrontendConfig(num_channels=24)
        audio = speech_like_noise(4000, seed=12)
        before = [f.channels for f in compute_features(audio, cfg)]
        with pytest.raises(ValueError, match="read-only"):
            mel_filterbank(cfg)[:] = 0
        after = [f.channels for f in compute_features(audio, cfg)]
        assert np.array_equal(before, after)


@pytest.mark.parametrize("tables", [
    lambda: [_hann_window(400)],
    lambda: [_hann_window_q15(400)],
    lambda: [mel_filterbank(FLOAT)],
    lambda: _mel_table_q15(FLOAT),
    lambda: [_bit_reverse_indices(512)],
    lambda: list(_stages(512)),
], ids=["hann", "hann_q15", "mel", "mel_q15", "bit_reverse", "twiddles"])
def test_cached_tables_are_read_only(tables):
    arrays = tables()
    assert arrays and not any(array.flags.writeable for array in arrays)


class TestFixedPointPath:
    def test_bit_identical_across_runs(self):
        noise = speech_like_noise(8000, seed=1)
        a = np.stack([f.channels for f in compute_features(noise, FIXED)])
        b = np.stack([f.channels for f in compute_features(noise, FIXED)])
        assert a.tobytes() == b.tobytes()

    def test_float_fixed_agreement_on_speech_like_noise(self):
        for seed in range(5):
            noise = speech_like_noise(16000, seed=seed, rms=4000.0)
            flo = np.stack([f.channels for f in compute_features(noise, FLOAT)])
            fix = np.stack([f.channels for f in compute_features(noise, FIXED)])
            assert np.abs(flo - fix).max() <= 0.1

    def test_fixed_frames_are_integers(self):
        frames = frame_audio(np.full(400, 1234, dtype=np.int16), FIXED)
        assert frames.dtype == np.int64
        powers = power_spectra(frames, FIXED)
        assert powers.dtype == np.int64

    def test_one_always_on_push_allocates_under_40_kb(self):
        # one 10 ms push, after a first push has built the cached tables:
        # 35.2 KB with the constant-geometry FFT's two frame buffers, 34.4 KB
        # before it; one more 512-point complex128 copy would add 8.2 KB
        stream = FrontendStream(FIXED)
        noise = speech_like_noise(16000, seed=3)
        stream.push(noise[:8000])
        assert traced_peak_mb(lambda: stream.push(noise[8000:8160])) * 1e6 < 40_000

    def test_sparse_mel_table_equals_the_dense_product(self):
        # A full-scale int16 bin has power 2 * (2**15)**2 after the 1/N FFT.
        top = 2**31
        rng = np.random.default_rng(23)
        for channels in range(1, 129):
            cfg = FrontendConfig(num_channels=channels, arithmetic_mode=ArithmeticMode.FIXED_POINT)
            powers = rng.integers(0, top, size=(5, cfg.fft_size // 2 + 1), endpoint=True)
            powers[0] = 0
            powers[1] = top
            powers[2] = top - rng.integers(0, 3, size=powers.shape[1])
            powers[3, rng.random(powers.shape[1]) < 0.9] = 0
            q15 = quantize_fract(mel_filterbank(cfg), MEL_FRACT_BITS)
            offset = round((2 * np.log2(cfg.fft_size) - MEL_FRACT_BITS) * np.log(2.0) * 2**16)
            dense = (fixed_ln(np.maximum(powers @ q15.T, 1)) + offset) * 2.0**-16
            assert _log_mel_fixed(powers, cfg).tobytes() == dense.tobytes()


def tracker_reference(spectra, window_frames):
    """Per-frame oracle: subtract the minimum of the last W rows seen so far."""
    out = []
    for t in range(len(spectra)):
        floor = spectra[max(0, t - window_frames + 1) : t + 1].min(axis=0)
        out.append(np.maximum(spectra[t] - floor, 0))
    return np.array(out)


def track(spectra, window_frames, bounds=None):
    """Noise-tracker output for a [frames, bins] block, pushed in pieces."""
    tracker = NoiseFloorTracker(window_frames)
    bounds = bounds or [(0, len(spectra))]
    return np.concatenate([tracker.process(spectra[lo:hi]) for lo, hi in bounds])


@st.composite
def chunk_bounds(draw, n):
    """(start, stop) pieces covering range(n): whole, one each, or random cuts."""
    kind = draw(st.sampled_from(["whole", "one_each", "random"]))
    if kind == "whole" or n < 2:
        cuts = []
    elif kind == "one_each":
        cuts = list(range(1, n))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=30)))
    edges = [0, *cuts, n]
    return list(zip(edges[:-1], edges[1:]))


class TestNoiseSuppression:
    def test_disabled_is_identity(self):
        # with the tracker off, features are the log-mel of the raw spectra
        cfg = FrontendConfig()
        noise = speech_like_noise(4000, seed=2)
        powers = power_spectra(frame_audio(noise, cfg), cfg)
        plain = np.log(np.maximum(powers @ mel_filterbank(cfg).T, cfg.log_floor))
        out = np.stack([f.channels for f in compute_features(noise, cfg)])
        assert np.array_equal(out, plain)

    def test_constant_spectrum_converges_to_zero(self):
        spectra = np.full((80, 257), 100.0)
        out = track(spectra, 50)
        # min includes the current frame, so a stationary floor zeroes out
        # well inside the warm-up window
        assert np.all(out[50:] <= 0.01 * 100.0)

    def test_tone_burst_retains_above_noise_power(self):
        spectra = np.full((60, 257), 10.0)
        tone_bin, tone_power = 100, 500.0
        spectra[30:40, tone_bin] += tone_power
        out = track(spectra, 50)
        retained = out[30:40, tone_bin]
        assert np.all(retained >= 0.9 * tone_power)

    def test_tracker_handles_integer_spectra_exactly(self):
        spectra = np.array([[5, 5, 5, 5], [7, 5, 9, 5]], dtype=np.int64)
        for bounds in ([(0, 2)], [(0, 1), (1, 2)]):
            out = track(spectra, 3, bounds)
            assert np.array_equal(out, np.array([[0, 0, 0, 0], [2, 0, 4, 0]]))
            assert out.dtype == np.int64

    # 63, 64, 65, 127 and 128 sit on the edges of the tracker's power-of-two
    # passes; up to 3 W frames take each window well past its warm-up
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 63, 64, 65, 100, 127, 128]),
           st.booleans())
    def test_blocks_equal_per_frame_reference(self, data, window_frames, integer):
        frames = data.draw(st.integers(1, min(max(3 * window_frames, 40), 300)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        spectra = rng.integers(0, 50, size=(frames, 6))
        spectra = spectra if integer else spectra * 0.37
        out = track(spectra, window_frames, data.draw(chunk_bounds(frames)))
        expected = tracker_reference(spectra, window_frames)
        assert out.dtype == spectra.dtype
        assert out.tobytes() == expected.tobytes()

    def test_empty_block_returns_empty_and_leaves_the_tracker_unseeded(self):
        tracker = NoiseFloorTracker(5)
        empty = tracker.process(np.zeros((0, 4)))
        assert empty.shape == (0, 4)
        spectra = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(tracker.process(spectra), tracker_reference(spectra, 5))
        assert tracker.process(np.zeros((0, 4))).shape == (0, 4)
        more = np.arange(8.0).reshape(2, 4)
        assert np.array_equal(tracker.process(more),
                              tracker_reference(np.concatenate([spectra, more]), 5)[3:])

    def test_carried_rows_do_not_keep_the_block_alive(self):
        tracker = NoiseFloorTracker(3)
        block = np.ones((200, 257))
        tracker.process(block)
        assert tracker._tail.shape == (2, 257)
        assert tracker._tail.base is None


class TestNoiseSuppressionInPipeline:
    def test_keyword_survives_the_tracker(self):
        # tone keyword over stationary noise: suppression changes the
        # features but the detector still peaks at the keyword
        from kwscascade.cascade import DetectorStream
        from kwscascade.decoder import DecoderConfig
        from kwscascade.synthetic import make_tone_acoustic_model, synth_keyword_audio, synth_noise

        rng = np.random.default_rng(0)
        plain = FrontendConfig()
        suppressed = FrontendConfig(noise_suppression_enabled=True)
        keyword, _ = synth_keyword_audio(plain, 3, unit_ms=150)
        audio = synth_noise(len(keyword) + 32000, rng, rms=300.0)
        region = slice(16000, 16000 + len(keyword))
        audio[region] = np.clip(
            audio[region].astype(np.int32) + keyword, -32768, 32767
        ).astype(np.int16)

        scores = {}
        for cfg in (plain, suppressed):
            det = DetectorStream(
                cfg, make_tone_acoustic_model(cfg, 3),
                DecoderConfig(3, smoothing_window_frames=10,
                              score_window_frames=100, threshold=0.3),
            )
            scores[cfg.noise_suppression_enabled] = max(
                hyp.score for _, hyp in det.push(audio)
            )
        assert scores[True] > 0.9
        assert scores[False] > 0.9
        plain_feats = np.stack([f.channels for f in compute_features(audio, plain)])
        supp_feats = np.stack([f.channels for f in compute_features(audio, suppressed)])
        assert not np.allclose(plain_feats, supp_feats)


_STREAM_CLIP = np.concatenate([
    speech_like_noise(1800, seed=9),
    np.zeros(900, dtype=np.int16),  # a silent stretch pulls the noise floor down
    speech_like_noise(1300, seed=10, rms=12000.0),
])


def _push_in_pieces(samples, cfg, bounds):
    stream = FrontendStream(cfg)
    return [f for lo, hi in bounds for f in stream.push(samples[lo:hi])]


class TestStreaming:
    def test_chunked_push_equals_one_shot(self):
        noise = speech_like_noise(6400, seed=9)
        bounds = [(lo, lo + 233) for lo in range(0, len(noise), 233)]
        for cfg in (FIXED, FLOAT):
            whole = np.stack([f.channels for f in compute_features(noise, cfg)])
            chunked = np.stack([f.channels for f in _push_in_pieces(noise, cfg, bounds)])
            assert chunked.shape == whole.shape
            assert chunked.tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        chunk_bounds(len(_STREAM_CLIP)),
        st.sampled_from([ArithmeticMode.FLOAT, ArithmeticMode.FIXED_POINT]),
        st.sampled_from([None, 1, 2, 3, 4, 5, 100]),
    )
    def test_any_chunking_equals_one_push(self, bounds, mode, window_frames):
        cfg = FrontendConfig(arithmetic_mode=mode,
                             noise_suppression_enabled=window_frames is not None)
        with mock.patch.object(frontend, "NOISE_WINDOW_FRAMES", window_frames or 100):
            chunked = _push_in_pieces(_STREAM_CLIP, cfg, bounds)
            whole = compute_features(_STREAM_CLIP, cfg)
        assert [f.frame_index for f in chunked] == [f.frame_index for f in whole]
        a = np.stack([f.channels for f in chunked])
        b = np.stack([f.channels for f in whole])
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("num_samples", BLOCK_EDGE_LENGTHS)
    @pytest.mark.parametrize("mode", [ArithmeticMode.FLOAT, ArithmeticMode.FIXED_POINT])
    @pytest.mark.parametrize("tracker", [False, True])
    def test_whole_file_blocks_equal_one_push(self, block_edge_clip, num_samples, mode,
                                              tracker):
        cfg = FrontendConfig(arithmetic_mode=mode, noise_suppression_enabled=tracker)
        samples = block_edge_clip[:num_samples]
        blocked = compute_features(samples, cfg)
        whole = FrontendStream(cfg).push(samples)
        assert [f.frame_index for f in blocked] == [f.frame_index for f in whole]
        assert (np.stack([f.channels for f in blocked]).tobytes()
                == np.stack([f.channels for f in whole]).tobytes())

    @pytest.mark.parametrize("cfg", [FLOAT, FIXED], ids=["float", "fixed"])
    def test_whole_file_memory_is_bounded_by_the_block(self, cfg):
        # one push of 60 s held about 76 MB of framing, FFT and power arrays
        noise = speech_like_noise(60 * 16000, seed=3)
        assert traced_peak_mb(lambda: compute_features(noise, cfg)) < 16

    def test_frame_indices_continue_across_pushes(self):
        stream = FrontendStream(FLOAT)
        first = stream.push(np.zeros(560, dtype=np.int16))
        second = stream.push(np.zeros(320, dtype=np.int16))
        assert [f.frame_index for f in [*first, *second]] == [0, 1, 2, 3]

    @pytest.mark.parametrize("cfg", [FLOAT, FIXED], ids=["float", "fixed"])
    def test_channels_are_the_stacked_rows_of_the_frames(self, cfg):
        # pushes of 560 samples (2 frames), none, 100 (no frame), 300 and 2000
        noise = speech_like_noise(2960, seed=5)
        stream, pushed = FrontendStream(cfg), []
        for lo, hi in [(0, 560), (560, 560), (560, 660), (660, 960), (960, 2960)]:
            frames = stream.push(noise[lo:hi])
            assert frames.first_frame == len(pushed)
            assert frames.channels.shape == (len(frames), cfg.num_channels)
            rows = np.array([f.channels for f in frames]).reshape(-1, cfg.num_channels)
            assert frames.channels.tobytes() == rows.tobytes()
            assert [f.frame_index for f in frames] == list(
                range(frames.first_frame, frames.first_frame + len(frames)))
            if len(frames):
                assert frames[-1].frame_index == frames.first_frame + len(frames) - 1
                assert [f.frame_index for f in frames[::-2]] == [
                    f.frame_index for f in list(frames)[::-2]]
            with pytest.raises(IndexError):
                frames[len(frames)]
            pushed.extend(frames)
        whole = compute_features(noise, cfg)
        assert (np.stack([f.channels for f in pushed]).tobytes()
                == np.stack([f.channels for f in whole]).tobytes())
