"""Seeded synthetic corpora for evaluation and end-to-end tests.

Two generators live here, both driven by a single integer seed:

* a posterior-level oracle corpus: streams of unit posteriors with planted
  keyword trajectories and impostor spikes whose peak decoder scores are
  controlled exactly (a unit holding value p for at least one smoothing
  window yields a smoothed peak of p, so the planted peak IS the score);
  every event also carries a planted speaker signature with ground-truth
  verification outcome;

* a tone-keyword audio corpus: each keyword unit is a pure tone centred on
  one mel channel, and a hand-built single-layer encoder maps channel
  energies to unit posteriors, so real WAV audio drives the full
  frontend/encoder/decoder pipeline with a known keyword end time.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import audio_io
from .decoder import DecoderConfig
from .encoder import (
    Activation,
    EncoderLayer,
    EncoderModel,
    ModelKind,
)
from .frontend import FrontendConfig, mel_center_frequencies, samples_to_ms, SAMPLE_RATE_HZ
from .quantize import QuantParams, compute_quant_params, quantize, quantize_bias


@dataclass
class PlantedEvent:
    kind: str  # "keyword" or "impostor"
    start_frame: int
    end_frame: int
    stage1_peak: float
    stage2_peak: float
    signature: np.ndarray = None
    verifies: bool = None  # ground truth: cosine vs profile >= threshold


@dataclass
class SyntheticStream:
    views: dict  # name -> [T, M+1] posterior array (or audio samples)
    hop_ms: int
    events: list = field(default_factory=list)

    @property
    def num_frames(self):
        return len(next(iter(self.views.values())))

    @property
    def duration_ms(self):
        return self.num_frames * self.hop_ms

    @property
    def duration_hours(self):
        return self.duration_ms / 3.6e6


@dataclass
class AudioStream:
    """PCM payload with the same corpus-facing surface as SyntheticStream."""

    views: dict  # "audio" -> int16 samples
    events: list = field(default_factory=list)

    @property
    def num_samples(self):
        return len(self.views["audio"])

    @property
    def duration_ms(self):
        return self.num_samples * 1000 / SAMPLE_RATE_HZ

    @property
    def duration_hours(self):
        return self.duration_ms / 3.6e6


@dataclass
class PositiveExample:
    stream: object  # SyntheticStream or AudioStream
    keyword_end_ms: int


@dataclass
class SyntheticCorpus:
    negatives: list
    positives: list
    profile_direction: np.ndarray = None
    speaker_threshold: float = 0.6

    @property
    def negative_hours(self):
        return sum(s.duration_hours for s in self.negatives)


def _blank_stream(rng, num_frames, num_units, noise_max):
    """Filler-dominated posterior matrix with sub-threshold unit noise."""
    units = rng.uniform(0.0, noise_max, size=(num_frames, num_units))
    filler = 1.0 - units.sum(axis=1)
    return np.concatenate([units, filler[:, None]], axis=1)


def _plant_trajectory(stream, start, peak, plateau_frames):
    """Fire units 0..M-1 in order, each holding `peak` for plateau_frames."""
    num_units = stream.shape[1] - 1
    for unit in range(num_units):
        lo = start + unit * plateau_frames
        hi = lo + plateau_frames
        stream[lo:hi, :num_units] = 0.0
        stream[lo:hi, unit] = peak
        stream[lo:hi, num_units] = 1.0 - peak
    return start + num_units * plateau_frames - 1  # last frame of the event


def _random_unit_vector(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _signature_near(rng, direction, spread):
    v = direction + spread * rng.normal(size=direction.shape)
    return v / np.linalg.norm(v)


def _signature_far(rng, direction):
    v = rng.normal(size=direction.shape)
    v -= np.dot(v, direction) * direction  # orthogonal component only
    v /= np.linalg.norm(v)
    return v + 0.02 * rng.normal(size=direction.shape)


def generate_posterior_corpus(
    seed,
    num_units=3,
    hop_ms=10,
    plateau_frames=10,
    negative_streams=4,
    negative_minutes_each=30.0,
    impostors_per_hour=40.0,
    num_positives=200,
    positive_frames=400,
    noise_max=0.02,
    signature_dim=64,
    speaker_threshold=0.6,
    impostor_leak_period=8,
):
    """Build the posterior-level oracle corpus.

    Negatives are long streams with planted impostor spikes: stage-1 peaks
    spread over [0.3, 0.95], stage-2 peaks mostly low (85 % in [0.05, 0.35])
    with a leaky tail in [0.55, 0.85]. Positives plant one keyword each:
    stage-1 peaks around 0.55, stage-2 peaks around 0.8.

    Speaker signatures are assigned deterministically: every
    ``impostor_leak_period``-th impostor that could pass stage 2 gets a
    near-profile signature, every other impostor a near-orthogonal one, so
    the impostor rejection rate is 1 - 1/period by construction (87.5 % at
    the default) whichever stage-2-passing subset a threshold selects.
    """
    rng = np.random.default_rng(seed)
    profile_dir = _random_unit_vector(rng, signature_dim)
    event_frames = num_units * plateau_frames
    gap = 4 * event_frames

    negatives = []
    leaky_count = 0
    for _ in range(negative_streams):
        frames = int(negative_minutes_each * 60_000 / hop_ms)
        s1 = _blank_stream(rng, frames, num_units, noise_max)
        s2 = _blank_stream(rng, frames, num_units, noise_max)
        events = []
        n_impostors = rng.poisson(impostors_per_hour * frames * hop_ms / 3.6e6)
        starts = np.sort(rng.choice(
            np.arange(gap, frames - event_frames - gap, gap),
            size=min(n_impostors, (frames - 2 * gap) // gap - 1),
            replace=False,
        ))
        for start in starts:
            p1 = rng.uniform(0.3, 0.95)
            leaky = rng.uniform() >= 0.85
            p2 = rng.uniform(0.55, 0.85) if leaky else rng.uniform(0.05, 0.35)
            end = _plant_trajectory(s1, start, p1, plateau_frames)
            _plant_trajectory(s2, start, p2, plateau_frames)
            if leaky:
                leaky_count += 1
                near = leaky_count % impostor_leak_period == 0
            else:
                near = False
            sig = _signature_near(rng, profile_dir, 0.05) if near else _signature_far(rng, profile_dir)
            verifies = float(np.dot(sig / np.linalg.norm(sig), profile_dir)) >= speaker_threshold
            events.append(PlantedEvent("impostor", int(start), int(end), p1, p2, sig, verifies))
        negatives.append(SyntheticStream({"stage1": s1, "stage2": s2}, hop_ms, events))

    positives = []
    for _ in range(num_positives):
        s1 = _blank_stream(rng, positive_frames, num_units, noise_max)
        s2 = _blank_stream(rng, positive_frames, num_units, noise_max)
        start = int(rng.integers(plateau_frames, positive_frames - event_frames - plateau_frames))
        p1 = float(np.clip(rng.normal(0.55, 0.15), 0.1, 0.98))
        p2 = float(np.clip(rng.normal(0.8, 0.08), 0.4, 0.99))
        end = _plant_trajectory(s1, start, p1, plateau_frames)
        _plant_trajectory(s2, start, p2, plateau_frames)
        sig = _signature_near(rng, profile_dir, 0.05)
        verifies = float(np.dot(sig / np.linalg.norm(sig), profile_dir)) >= speaker_threshold
        event = PlantedEvent("keyword", start, int(end), p1, p2, sig, verifies)
        stream = SyntheticStream({"stage1": s1, "stage2": s2}, hop_ms, [event])
        positives.append(PositiveExample(stream, keyword_end_ms=(int(end) + 1) * hop_ms))

    return SyntheticCorpus(negatives, positives, profile_dir, speaker_threshold)


def oracle_decoder_config(num_units=3, plateau_frames=10, threshold=0.5):
    """Decoder settings matched to the generator.

    The smoothing window equals the planted plateau, so a smoothed peak
    equals the planted peak. The score window is kept short enough that
    one planted event yields exactly one deduplicated accept under the
    default 1 s refractory: the score can only exceed threshold while the
    window still holds some of unit 0's smoothed mass, an interval of at
    most 2 * plateau + score_window - 1 frames, below the 100-frame
    refractory at these defaults.
    """
    return DecoderConfig(
        num_units=num_units,
        smoothing_window_frames=plateau_frames,
        score_window_frames=(num_units + 2) * plateau_frames,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Tone-keyword audio: real PCM through the real pipeline
# ---------------------------------------------------------------------------

def tone_unit_channels(config, num_units):
    """Well-separated mel channels used as keyword units."""
    if not 1 <= num_units < config.num_channels:
        raise ValueError(f"num_units {num_units} must lie in 1..{config.num_channels - 1}, "
                         f"below num_channels {config.num_channels}")
    step = config.num_channels // (num_units + 1)
    return [step * (k + 1) for k in range(num_units)]


def make_tone_acoustic_model(config, num_units, stacked_frames=1, name="",
                             filler_bias=22.0):
    """Single-layer encoder wired so that tone energy on a unit's mel channel
    wins the softmax, anything else falls to the filler unit.

    Weight row for unit k picks out its channel (replicated across the
    stack); the filler row is all zero with a constant logit sitting above
    the channel log-energy of quiet backgrounds (~17 at 60 RMS noise) and
    below a full-scale tone's (~28), so the model only fires on tones.
    """
    channels = tone_unit_channels(config, num_units)
    in_dim = config.num_channels * stacked_frames
    weights = np.zeros((num_units + 1, in_dim))
    for unit, ch in enumerate(channels):
        for s in range(stacked_frames):
            weights[unit, s * config.num_channels + ch] = 1.0 / stacked_frames
    bias = np.zeros(num_units + 1)
    bias[num_units] = filler_bias
    input_params = QuantParams(-30.0, 30.0)
    w_params = compute_quant_params(weights)
    layer = EncoderLayer(
        quantize(weights, w_params),
        quantize_bias(bias, w_params.scale * input_params.scale),
        input_params,
        Activation.SOFTMAX,
    )
    return EncoderModel([layer], config.num_channels, stacked_frames, num_units,
                        ModelKind.ACOUSTIC, name)


def make_random_embedding_model(config, dim=64, hidden=32, seed=7, stacked_frames=1):
    """Small random two-layer embedding net over log-mel frames."""
    rng = np.random.default_rng(seed)
    in_dim = config.num_channels * stacked_frames
    w1 = rng.normal(0.0, 0.3, size=(hidden, in_dim))
    w2 = rng.normal(0.0, 0.3, size=(dim, hidden))
    in1 = QuantParams(-30.0, 30.0)
    in2 = QuantParams(0.0, 40.0)  # post-ReLU activations
    p1, p2 = compute_quant_params(w1), compute_quant_params(w2)
    layers = [
        EncoderLayer(quantize(w1, p1), quantize_bias(rng.normal(0, 0.5, hidden), p1.scale * in1.scale),
                     in1, Activation.RELU),
        EncoderLayer(quantize(w2, p2), quantize_bias(np.zeros(dim), p2.scale * in2.scale),
                     in2, Activation.NONE),
    ]
    return EncoderModel(layers, config.num_channels, stacked_frames, dim, ModelKind.EMBEDDING)


def synth_tone(freq_hz, num_samples, amplitude=8000.0, phase=0.0):
    t = np.arange(num_samples) / SAMPLE_RATE_HZ
    tone = amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)
    return np.clip(np.round(tone), -32768, 32767).astype(np.int16)


def synth_keyword_audio(config, num_units, unit_ms=150, amplitude=8000.0,
                        lead_silence_ms=300, trail_silence_ms=500):
    """PCM of the keyword: each unit's tone in order, silence around it.

    Returns (samples, keyword_end_ms) where the end marks the last tone
    sample.
    """
    freqs = mel_center_frequencies(config)[tone_unit_channels(config, num_units)]
    unit_samples = unit_ms * SAMPLE_RATE_HZ // 1000
    parts = [np.zeros(lead_silence_ms * SAMPLE_RATE_HZ // 1000, dtype=np.int16)]
    for f in freqs:
        parts.append(synth_tone(f, unit_samples, amplitude))
    keyword_end_samples = sum(len(p) for p in parts)
    parts.append(np.zeros(trail_silence_ms * SAMPLE_RATE_HZ // 1000, dtype=np.int16))
    samples = np.concatenate(parts)
    return samples, samples_to_ms(keyword_end_samples)


def synth_noise(num_samples, rng, rms=60.0):
    """Low-level broadband noise that never wakes the tone detector."""
    noise = rng.normal(0.0, rms, size=num_samples)
    return np.clip(np.round(noise), -32768, 32767).astype(np.int16)


def speech_like_noise(num_samples, seed=0, rms=4000.0):
    """Broadband noise with a gentle low-frequency tilt, speech-band energy."""
    rng = np.random.default_rng(seed)
    white = rng.normal(size=num_samples + 1)
    tilted = white[1:] + 0.6 * white[:-1]  # one-pole-ish lowpass tilt
    tilted *= rms / np.sqrt(np.mean(tilted**2))
    return np.clip(np.round(tilted), -32768, 32767).astype(np.int16)


def generate_audio_corpus(seed, out_dir, config=None, num_units=3,
                          num_positives=5, num_negatives=2,
                          negative_seconds=20.0, unit_ms=150):
    """Write tone-keyword WAVs plus a manifest; returns the manifest path.

    Negatives are noise with occasional single-unit tones (not a keyword,
    so neither stage should fire). Positives each contain one keyword with
    a labelled end time.
    """
    config = config or FrontendConfig()
    freqs = mel_center_frequencies(config)[tone_unit_channels(config, num_units)]
    n = int(negative_seconds * SAMPLE_RATE_HZ)
    if num_negatives and n <= SAMPLE_RATE_HZ:
        raise ValueError(f"negative_seconds {negative_seconds} is too short: "
                         "a negative needs over 1 s for its lone tones")
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i in range(num_negatives):
        samples = synth_noise(n, rng)
        # lone tones: first unit only, never the ordered sequence
        for _ in range(3):
            at = int(rng.integers(0, n - SAMPLE_RATE_HZ))
            dur = unit_ms * SAMPLE_RATE_HZ // 1000
            samples[at : at + dur] = synth_tone(freqs[0], dur, amplitude=6000.0)
        name = f"negative_{i:03d}.wav"
        audio_io.write_wav(os.path.join(out_dir, name), samples)
        lines.append(f"negative {name}")
    for i in range(num_positives):
        lead = int(rng.integers(200, 1200))
        samples, end_ms = synth_keyword_audio(
            config, num_units, unit_ms=unit_ms, lead_silence_ms=lead
        )
        name = f"positive_{i:03d}.wav"
        audio_io.write_wav(os.path.join(out_dir, name), samples)
        lines.append(f"positive {name} {end_ms}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_audio_corpus(manifest_path):
    """Read a manifest's WAVs into an in-memory corpus of AudioStreams."""
    neg_paths, pos_entries = audio_io.read_manifest(manifest_path)
    negatives = [AudioStream({"audio": audio_io.read_wav(p).samples}) for p in neg_paths]
    positives = [
        PositiveExample(AudioStream({"audio": audio_io.read_wav(p).samples}), end_ms)
        for p, end_ms in pos_entries
    ]
    return SyntheticCorpus(negatives, positives)
