"""Log-mel filterbank frontend over 16 kHz mono PCM.

Two arithmetic paths produce the same feature stream: a plain float path
and a fixed-point path whose intermediates are all integers (see
``fixedpoint`` for the bit widths), making the fixed output byte-identical
across runs and platforms. An optional minimum-statistics noise tracker
sits between the power spectrum and the mel filterbank.

``FrontendStream.push`` returns its block's log-mel rows as one [n, C]
array, ``FeatureFrames.channels``; a FeatureFrame is built only when one
is indexed.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import lru_cache

import numpy as np

from . import fixedpoint as fxp
from .quantize import _matmul_row_blocks

SAMPLE_RATE_HZ = 16000

# Fixed-point silence floor is one integer power unit; the float path
# floors at config.log_floor. See FrontendConfig.log_floor.
_FIXED_POWER_FLOOR = 1

# Audio is read (audio_io.read_pcm) and whole arrays are pushed this many samples
# (2 s) at a time, so the temporaries, about 10 KB per 10 ms frame, scale with the
# block and not with the input. Every stage gives the same bits under any chunking.
BLOCK_SAMPLES = 2 * SAMPLE_RATE_HZ

# The noise tracker's window W in frames, 1 s at the default hop: see NoiseFloorTracker.
NOISE_WINDOW_FRAMES = 100


class ConfigError(ValueError):
    """Invalid configuration."""


_BOUND_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


def setting(default=MISSING, *, key=True, **bounds):
    """A config field with its bounds and its config-file key declared once.

    ``bounds`` maps ``ge``/``gt``/``le``/``lt`` to the values the field is
    compared with on its own; ``check_bounds`` applies them. ``key`` is True
    when the field is a config-file key of the same name, a string when the
    key has another name, and False when the field is library-only.
    """
    return field(default=default, metadata={"key": key, "bounds": bounds})


def check_bounds(config):
    """ConfigError naming the first field of ``config`` outside its declared bounds.

    A NaN is outside every bound.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        for op, bound in f.metadata.get("bounds", {}).items():
            if not getattr(operator, op)(value, bound):
                raise ConfigError(f"{f.name} must be {_BOUND_SYMBOLS[op]} {bound}, got {value}")


class ArithmeticMode(Enum):
    FLOAT = "float"
    FIXED_POINT = "fixed_point"


@dataclass(frozen=True)
class AudioChunk:
    """A block of signed 16-bit mono PCM at 16 kHz."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _pcm(self.samples))

    def __len__(self):
        return len(self.samples)


def _pcm(samples):
    """An AudioChunk's samples, an int16 array as it is, or any other array cast to
    int16: a ConfigError if a value is not finite or outside the int16 range."""
    if isinstance(samples, AudioChunk):
        return samples.samples
    arr = np.asarray(samples)
    if arr.dtype == np.int16:
        return arr
    if arr.size and not (np.isfinite(arr).all() and -32768 <= arr.min() and arr.max() <= 32767):
        raise ConfigError("samples must be finite and within the signed 16-bit range")
    return arr.astype(np.int16)


@dataclass(frozen=True)
class FrontendConfig:
    frame_length_ms: int = setting(25, ge=1)
    hop_ms: int = setting(10, ge=1)
    num_channels: int = setting(32, ge=1, le=128)
    fft_size: int = setting(512)
    mel_low_hz: float = setting(125.0, gt=0.0)
    mel_high_hz: float = setting(7500.0, le=SAMPLE_RATE_HZ / 2)
    log_floor: float = setting(1e-12, gt=0.0, lt=math.inf)
    noise_suppression_enabled: bool = setting(False, key="noise_suppression")
    arithmetic_mode: ArithmeticMode = setting(ArithmeticMode.FLOAT)

    def __post_init__(self):
        check_bounds(self)
        if self.fft_size & (self.fft_size - 1) or self.fft_size < self.frame_samples:
            raise ConfigError(f"fft_size must be a power of two >= the {self.frame_samples}-sample "
                              f"frame, got {self.fft_size}")
        if not self.mel_low_hz < self.mel_high_hz:
            raise ConfigError(f"mel_low_hz {self.mel_low_hz} must be below mel_high_hz "
                              f"{self.mel_high_hz}")

    @property
    def frame_samples(self):
        return self.frame_length_ms * SAMPLE_RATE_HZ // 1000

    @property
    def hop_samples(self):
        return self.hop_ms * SAMPLE_RATE_HZ // 1000


@dataclass
class FeatureFrame:
    """One frame of log-mel channel energies."""

    channels: np.ndarray
    frame_index: int


class _PushRows(Sequence):
    """A push's result, one item per frame from ``first_frame`` on, backed by
    arrays with one row per frame: indexing builds one item (``_item``), a
    slice a list of them."""

    def __init__(self, first_frame, count):
        self.first_frame = first_frame
        self._count = count

    def __len__(self):
        return self._count

    def __getitem__(self, index):
        rows = range(self._count)[index]  # a range for a slice; IndexError out of range
        return [self._item(i) for i in rows] if isinstance(index, slice) else self._item(rows)

    def __iter__(self):
        return map(self._item, range(self._count))


class FeatureFrames(_PushRows):
    """The FeatureFrames of one push: ``channels`` [n, C] holds their rows, and
    item i is FeatureFrame(channels[i], first_frame + i)."""

    def __init__(self, channels, first_frame):
        super().__init__(first_frame, len(channels))
        self.channels = channels

    def _item(self, i):
        return FeatureFrame(self.channels[i], self.first_frame + i)


def frame_end_sample(frame_index, config):
    """The sample just past frame ``frame_index`` (an int or an int array).

    This is the stream's one frame clock: frame k covers samples
    [k * hop, k * hop + frame), and every per-frame array is indexed by k.
    """
    return frame_index * config.hop_samples + config.frame_samples


def samples_to_ms(num_samples):
    """A sample position (an int or an int array) in whole milliseconds.

    Rounds half to even, as ``round`` does, in exact integer arithmetic.
    """
    ms, rest = divmod(num_samples * 1000, SAMPLE_RATE_HZ)
    return ms + ((2 * rest > SAMPLE_RATE_HZ) | ((2 * rest == SAMPLE_RATE_HZ) & (ms % 2 == 1)))


def frame_timestamp_ms(frame_index, config):
    """End time of a frame (an int or an int array) in integer milliseconds."""
    return samples_to_ms(frame_end_sample(frame_index, config))


def num_frames_for(num_samples, config):
    """Frame-count law: floor((len - frame) / hop) + 1, zero when short."""
    if num_samples < config.frame_samples:
        return 0
    return (num_samples - config.frame_samples) // config.hop_samples + 1


@lru_cache(maxsize=None)
def _hann_window(frame_samples):
    n = np.arange(frame_samples)
    return fxp._read_only(0.5 - 0.5 * np.cos(2.0 * np.pi * n / (frame_samples - 1)))


@lru_cache(maxsize=None)
def _hann_window_q15(frame_samples):
    return fxp._read_only(fxp.quantize_fract(_hann_window(frame_samples), fxp.WINDOW_FRACT_BITS))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_points_hz(config):
    """num_channels + 2 frequencies in Hz, evenly spaced in mel; channel k spans points k..k+2."""
    return _mel_to_hz(np.linspace(
        _hz_to_mel(config.mel_low_hz), _hz_to_mel(config.mel_high_hz), config.num_channels + 2
    ))


@lru_cache(maxsize=None)
def mel_filterbank(config):
    """Triangular mel filter matrix [num_channels, fft_size//2 + 1].

    Peaks are 1.0 (no area normalisation); adjacent triangles partition
    interior bins with total weight exactly 1. A filter too narrow to
    cover any FFT bin gets weight 1.0 at the bin nearest its centre so
    every filter has positive mass for any 1..128 channel count (at
    extreme counts this snap can push a bin's stacked weight above 1).
    The matrix is cached per config and read-only.
    """
    n_bins = config.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * SAMPLE_RATE_HZ / config.fft_size
    hz_pts = _mel_points_hz(config)
    fb = np.zeros((config.num_channels, n_bins))
    for k in range(config.num_channels):
        lo, ctr, hi = hz_pts[k], hz_pts[k + 1], hz_pts[k + 2]
        rising = (bin_hz - lo) / (ctr - lo)
        falling = (hi - bin_hz) / (hi - ctr)
        fb[k] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
        if fb[k].sum() == 0.0:
            fb[k, int(np.argmin(np.abs(bin_hz - ctr)))] = 1.0
    return fxp._read_only(fb)


@lru_cache(maxsize=None)
def _mel_table_q15(config):
    """The Q15 mel filterbank stored sparse, as each channel's first bin and
    its weights from there to its last nonzero one; a channel whose weights
    all round to zero keeps one zero weight. The default 32 channels store
    452 weights against 8224 dense.

    Returns the flat form the product reads: the bin of every stored weight,
    the weights, and the offset of each channel's first weight in them.
    """
    dense = fxp.quantize_fract(mel_filterbank(config), fxp.MEL_FRACT_BITS)
    runs = []
    for row in dense:
        nonzero = np.flatnonzero(row)
        runs.append(np.arange(nonzero[0], nonzero[-1] + 1) if len(nonzero) else np.arange(1))
    lengths = [len(run) for run in runs]
    bins = np.concatenate(runs)
    weights = dense[np.repeat(np.arange(len(runs)), lengths), bins]
    return tuple(map(fxp._read_only, (bins, weights, np.cumsum([0] + lengths[:-1]))))


def mel_center_frequencies(config):
    """Centre frequency in Hz of each mel channel."""
    return _mel_points_hz(config)[1:-1]


def frame_audio(chunk, config):
    """Split PCM into Hann-windowed frames zero-padded to fft_size.

    Returns a [num_frames, fft_size] array: float64 in FLOAT mode, int64
    windowed sample values in FIXED_POINT mode.
    """
    samples = _pcm(chunk)
    count = num_frames_for(len(samples), config)
    fixed = config.arithmetic_mode is ArithmeticMode.FIXED_POINT
    out = np.zeros((count, config.fft_size), dtype=np.int64 if fixed else np.float64)
    if count == 0:
        return out
    # a strided view, inside the buffer because count frames fit in it; built
    # directly, it costs a fraction of as_strided's set-up on a one-frame push
    samples = np.ascontiguousarray(samples)
    frames = np.ndarray((count, config.frame_samples), samples.dtype, samples,
                        strides=(config.hop_samples * samples.itemsize, samples.itemsize))
    if fixed:
        out[:, : config.frame_samples] = fxp.rshift_round(
            frames * _hann_window_q15(config.frame_samples), fxp.WINDOW_FRACT_BITS
        )
    else:
        out[:, : config.frame_samples] = frames * _hann_window(config.frame_samples)
    return out


def power_spectra(frames, config):
    """Power spectrum per windowed frame, [num_frames, fft_size//2 + 1].

    FLOAT mode: |rfft|^2 of the raw-scale signal. FIXED_POINT mode: integer
    power of the 1/N-scaled fixed FFT; the scale difference is compensated
    inside the log (see _log_mel_fixed).
    """
    if config.arithmetic_mode is ArithmeticMode.FIXED_POINT:
        out = np.empty((len(frames), config.fft_size // 2 + 1), dtype=np.int64)
        for row, frame in zip(out, frames):
            row[:] = fxp.power_spectrum_fixed(frame)
        return out
    spec = np.fft.rfft(frames, n=config.fft_size, axis=-1)
    return spec.real**2 + spec.imag**2


def _log_mel_float(powers, config):
    energies = _matmul_row_blocks(powers, mel_filterbank(config).T)
    return np.log(np.maximum(energies, config.log_floor))


@lru_cache(maxsize=None)
def _fixed_log_offset_q16(config):
    # Fixed power is float power * 2**-(2 log2 N); mel weights add 2**MEL_FRACT.
    stages = config.fft_size.bit_length() - 1
    return round((2 * stages - fxp.MEL_FRACT_BITS) * np.log(2.0) * (1 << fxp.LOG_FRACT_BITS))


def _log_mel_fixed(powers, config):
    # integer sums, so summing each channel's run alone gives the dense product's bits
    bins, weights, starts = _mel_table_q15(config)
    energies = np.add.reduceat(powers.take(bins, axis=1) * weights, starts, axis=1)
    np.maximum(energies, _FIXED_POWER_FLOOR, out=energies)
    # int -> float conversion by an exact power-of-two factor
    return (fxp.fixed_ln(energies) + _fixed_log_offset_q16(config)) * 2.0 ** (-fxp.LOG_FRACT_BITS)


class NoiseFloorTracker:
    """Running minimum-statistics noise floor, subtracted per frequency bin.

    Each output row has the per-bin minimum of the last ``window_frames``
    power spectra (its own row included) subtracted, clamped at zero. The
    tracker carries the last ``window_frames - 1`` rows between calls; at
    stream start the first row stands in for the missing history, which
    leaves every warm-up minimum unchanged. Integer spectra stay exact
    integers.

    The W-row minima are taken in floor(log2 W) + 1 passes over the carried
    and new rows: pass s = 1, 2, 4, ... turns minima over s rows into minima
    over 2s rows, and one last pass joins two overlapping power-of-two
    windows that cover each W-row window.
    """

    def __init__(self, window_frames):
        self._window_frames = window_frames
        self._tail = None

    def process(self, powers):
        """Suppress a [frames, bins] block of power spectra; an empty block
        comes back empty and leaves the tracker as it was."""
        powers = np.asarray(powers)
        if len(powers) == 0:
            return powers.copy()
        if self._tail is None:
            self._tail = np.repeat(powers[:1], self._window_frames - 1, axis=0)
        history = np.concatenate([self._tail, powers])
        floor, span = history, 1
        while 2 * span <= self._window_frames:
            floor = np.minimum(floor[:-span], floor[span:])
            span *= 2
        # floor[i] is the minimum of rows i .. i + span - 1, and W - span < span
        floor = np.minimum(floor[: len(powers)], floor[self._window_frames - span :])
        # a copy, so the carried rows do not keep this push's history alive
        self._tail = history[len(history) - len(self._tail):].copy()
        out = powers - floor
        return np.maximum(out, 0, out=out)


class FrontendStream:
    """Stateful streaming frontend: push PCM samples, get the FeatureFrames of
    the frames they complete, as one FeatureFrames.

    State (window position, noise estimate) is per-stream; run one stream
    per thread.
    """

    def __init__(self, config):
        self._config = config
        self._residual = np.zeros(0, dtype=np.int16)
        self._next_frame = 0
        self._tracker = (NoiseFloorTracker(NOISE_WINDOW_FRAMES)
                         if config.noise_suppression_enabled else None)

    def push(self, samples):
        cfg = self._config
        buf = np.concatenate([self._residual, _pcm(samples)])
        count = num_frames_for(len(buf), cfg)
        if count == 0:
            self._residual = buf
            return FeatureFrames(np.empty((0, cfg.num_channels)), self._next_frame)
        frames = frame_audio(buf, cfg)
        self._residual = buf[count * cfg.hop_samples :]
        powers = power_spectra(frames, cfg)
        if self._tracker is not None:
            powers = self._tracker.process(powers)
        if cfg.arithmetic_mode is ArithmeticMode.FIXED_POINT:
            logmels = _log_mel_fixed(powers, cfg)
        else:
            logmels = _log_mel_float(powers, cfg)
        first = self._next_frame
        self._next_frame += count
        return FeatureFrames(logmels, first)


def pcm_blocks(samples):
    """``samples`` as int16 PCM (see ``_pcm``) in consecutive slices of
    BLOCK_SAMPLES, the last one shorter; no slice for an empty input."""
    samples = _pcm(samples)
    return (samples[start : start + BLOCK_SAMPLES]
            for start in range(0, len(samples), BLOCK_SAMPLES))


def compute_features(chunk, config):
    """Feature extraction over a whole chunk, the frames one push of it gives."""
    stream = FrontendStream(config)
    return [frame for block in pcm_blocks(chunk) for frame in stream.push(block)]
