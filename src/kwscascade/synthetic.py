"""Seeded synthetic corpora for evaluation and end-to-end tests.

Two generators live here, both driven by a single integer seed:

* a posterior-level oracle corpus: streams of unit posteriors with planted
  keyword trajectories and impostor spikes whose peak decoder scores are
  controlled exactly. Each unit holds its value for ORACLE_PLATEAU_FRAMES,
  and ``oracle_decoder_config`` smooths over that many frames, so the
  planted peak IS the score. Every event also carries its planted speaker
  outcome, ``verifies``, which stands in for a d-vector verifier and which
  the evaluation's speaker gate reads;

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
from .encoder import Activation, EncoderModel, ModelKind, quantize_layer
from .frontend import FrontendConfig, mel_center_frequencies, samples_to_ms, SAMPLE_RATE_HZ
from .quantize import QuantParams

# The posterior oracle's geometry, read by both generate_posterior_corpus and
# oracle_decoder_config. Each unit is planted for one smoothing window.
ORACLE_UNITS = 3
ORACLE_HOP_MS = 10
ORACLE_PLATEAU_FRAMES = 10
ORACLE_POSITIVE_FRAMES = 400
KEYWORD_UNIT_MS = 150  # each tone of a keyword, in synth_keyword_audio and gen-corpus negatives


@dataclass
class PlantedEvent:
    start_frame: int
    end_frame: int
    stage1_peak: float
    stage2_peak: float
    verifies: bool  # ground truth: the speaker check accepts this event


@dataclass
class SyntheticStream:
    views: dict  # name -> [T, M+1] posterior array
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
    """A WAV file with the same corpus-facing surface as SyntheticStream: the file's
    ``path`` and its header's ``num_samples``. ``blocks()`` reads the file a block at a
    time (see ``audio_io.read_pcm``) at each call, so a corpus holds no audio."""

    path: str
    num_samples: int
    events: list = field(default_factory=list)

    def blocks(self):
        return audio_io.read_pcm(self.path)

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

    @property
    def negative_hours(self):
        return sum(s.duration_hours for s in self.negatives)


def _blank_stream(rng, num_frames):
    """Filler-dominated posterior matrix with sub-threshold unit noise."""
    units = rng.uniform(0.0, 0.02, size=(num_frames, ORACLE_UNITS))
    filler = 1.0 - units.sum(axis=1)
    return np.concatenate([units, filler[:, None]], axis=1)


def _plant_trajectory(stream, start, peak):
    """Fire units 0..M-1 in order, each holding `peak` for one plateau."""
    for unit in range(ORACLE_UNITS):
        lo = start + unit * ORACLE_PLATEAU_FRAMES
        hi = lo + ORACLE_PLATEAU_FRAMES
        stream[lo:hi, :ORACLE_UNITS] = 0.0
        stream[lo:hi, unit] = peak
        stream[lo:hi, ORACLE_UNITS] = 1.0 - peak
    return start + ORACLE_UNITS * ORACLE_PLATEAU_FRAMES - 1  # last frame of the event


def _speaker_verifies(rng, profile, near):
    """Draw an event's speaker signature and return whether it verifies.

    A near signature is the profile plus small noise; a far one is nearly
    orthogonal to it. It verifies when its cosine to the profile is >= 0.6.
    """
    if near:
        sig = profile + 0.05 * rng.normal(size=profile.shape)
        sig = sig / np.linalg.norm(sig)
    else:
        sig = rng.normal(size=profile.shape)
        sig -= np.dot(sig, profile) * profile  # orthogonal component only
        sig /= np.linalg.norm(sig)
        sig = sig + 0.02 * rng.normal(size=profile.shape)
    return float(np.dot(sig / np.linalg.norm(sig), profile)) >= 0.6


def generate_posterior_corpus(seed, negative_streams=4, negative_minutes_each=30.0,
                              num_positives=200):
    """Build the posterior-level oracle corpus.

    Negatives are long streams with planted impostor spikes, 40 per hour:
    stage-1 peaks spread over [0.3, 0.95], stage-2 peaks mostly low (85 % in
    [0.05, 0.35]) with a leaky tail in [0.55, 0.85]. Positives plant one
    keyword each: stage-1 peaks around 0.55, stage-2 peaks around 0.8.

    Speaker outcomes are assigned deterministically: every 8th impostor
    that could pass stage 2 gets a near-profile signature, every other
    impostor a near-orthogonal one, so the impostor rejection rate is
    1 - 1/8 = 87.5 % by construction whichever stage-2-passing subset a
    threshold selects. Every keyword gets a near-profile signature.
    """
    rng = np.random.default_rng(seed)
    profile = rng.normal(size=64)
    profile /= np.linalg.norm(profile)
    event_frames = ORACLE_UNITS * ORACLE_PLATEAU_FRAMES
    gap = 4 * event_frames

    negatives = []
    leaky_count = 0
    for _ in range(negative_streams):
        frames = int(negative_minutes_each * 60_000 / ORACLE_HOP_MS)
        s1 = _blank_stream(rng, frames)
        s2 = _blank_stream(rng, frames)
        events = []
        n_impostors = rng.poisson(40.0 * frames * ORACLE_HOP_MS / 3.6e6)
        starts = np.sort(rng.choice(
            np.arange(gap, frames - event_frames - gap, gap),
            size=min(n_impostors, (frames - 2 * gap) // gap - 1),
            replace=False,
        ))
        for start in starts:
            p1 = rng.uniform(0.3, 0.95)
            leaky = rng.uniform() >= 0.85
            p2 = rng.uniform(0.55, 0.85) if leaky else rng.uniform(0.05, 0.35)
            end = _plant_trajectory(s1, start, p1)
            _plant_trajectory(s2, start, p2)
            leaky_count += leaky
            near = leaky and leaky_count % 8 == 0
            verifies = _speaker_verifies(rng, profile, near)
            events.append(PlantedEvent(int(start), int(end), p1, p2, verifies))
        negatives.append(SyntheticStream({"stage1": s1, "stage2": s2}, ORACLE_HOP_MS, events))

    positives = []
    for _ in range(num_positives):
        s1 = _blank_stream(rng, ORACLE_POSITIVE_FRAMES)
        s2 = _blank_stream(rng, ORACLE_POSITIVE_FRAMES)
        start = int(rng.integers(ORACLE_PLATEAU_FRAMES,
                                 ORACLE_POSITIVE_FRAMES - event_frames - ORACLE_PLATEAU_FRAMES))
        p1 = float(np.clip(rng.normal(0.55, 0.15), 0.1, 0.98))
        p2 = float(np.clip(rng.normal(0.8, 0.08), 0.4, 0.99))
        end = _plant_trajectory(s1, start, p1)
        _plant_trajectory(s2, start, p2)
        event = PlantedEvent(start, int(end), p1, p2, _speaker_verifies(rng, profile, True))
        stream = SyntheticStream({"stage1": s1, "stage2": s2}, ORACLE_HOP_MS, [event])
        positives.append(PositiveExample(stream, keyword_end_ms=(int(end) + 1) * ORACLE_HOP_MS))

    return SyntheticCorpus(negatives, positives)


def oracle_decoder_config():
    """Decoder settings matched to the generator, at the default threshold.

    The smoothing window equals the planted plateau, so a smoothed peak
    equals the planted peak. The score window is kept short enough that
    one planted event yields exactly one deduplicated accept under the
    default 1 s refractory: the score can only exceed threshold while the
    window still holds some of unit 0's smoothed mass, an interval of at
    most 2 * plateau + score_window - 1 frames, below the 100-frame
    refractory.
    """
    return DecoderConfig(
        num_units=ORACLE_UNITS,
        smoothing_window_frames=ORACLE_PLATEAU_FRAMES,
        score_window_frames=(ORACLE_UNITS + 2) * ORACLE_PLATEAU_FRAMES,
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


def make_tone_acoustic_model(config, num_units, stacked_frames=1, name=""):
    """Single-layer encoder wired so that tone energy on a unit's mel channel
    wins the softmax, anything else falls to the filler unit.

    Weight row for unit k picks out its channel (replicated across the
    stack); the filler row is all zero with a constant logit, 22, sitting
    above the channel log-energy of quiet backgrounds (~17 at 60 RMS noise)
    and below a full-scale tone's (~28), so the model only fires on tones.
    """
    channels = tone_unit_channels(config, num_units)
    in_dim = config.num_channels * stacked_frames
    weights = np.zeros((num_units + 1, in_dim))
    for unit, ch in enumerate(channels):
        for s in range(stacked_frames):
            weights[unit, s * config.num_channels + ch] = 1.0 / stacked_frames
    bias = np.zeros(num_units + 1)
    bias[num_units] = 22.0
    layer = quantize_layer(weights, bias, QuantParams(-30.0, 30.0), Activation.SOFTMAX)
    return EncoderModel([layer], config.num_channels, stacked_frames, num_units,
                        ModelKind.ACOUSTIC, name)


def make_random_embedding_model(config, dim=64, hidden=32):
    """Small random two-layer embedding net over single log-mel frames."""
    rng = np.random.default_rng(7)
    w1 = rng.normal(0.0, 0.3, size=(hidden, config.num_channels))
    w2 = rng.normal(0.0, 0.3, size=(dim, hidden))
    layers = [
        quantize_layer(w1, rng.normal(0, 0.5, hidden), QuantParams(-30.0, 30.0), Activation.RELU),
        quantize_layer(w2, np.zeros(dim), QuantParams(0.0, 40.0), Activation.NONE),  # post-ReLU
    ]
    return EncoderModel(layers, config.num_channels, 1, dim, ModelKind.EMBEDDING)


def synth_tone(freq_hz, num_samples, amplitude=8000.0):
    t = np.arange(num_samples) / SAMPLE_RATE_HZ
    tone = amplitude * np.sin(2.0 * np.pi * freq_hz * t)
    return np.clip(np.round(tone), -32768, 32767).astype(np.int16)


def synth_keyword_audio(config, num_units, unit_ms=KEYWORD_UNIT_MS, amplitude=8000.0,
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


def generate_audio_corpus(seed, out_dir, num_units=3, num_positives=5, num_negatives=2,
                          negative_seconds=20.0):
    """Write tone-keyword WAVs plus a manifest; returns the manifest path.

    Negatives are noise with occasional single-unit tones (not a keyword,
    so neither stage should fire). Positives each contain one keyword with
    a labelled end time. Audio is for the default frontend.
    """
    config = FrontendConfig()
    freqs = mel_center_frequencies(config)[tone_unit_channels(config, num_units)]
    n = int(negative_seconds * SAMPLE_RATE_HZ)
    if num_negatives and n <= SAMPLE_RATE_HZ:
        raise ValueError(f"negative_seconds {negative_seconds} is too short: "
                         "a negative needs over 1 s for its lone tones")
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    dur = KEYWORD_UNIT_MS * SAMPLE_RATE_HZ // 1000
    for i in range(num_negatives):
        samples = synth_noise(n, rng)
        # lone tones: first unit only, never the ordered sequence
        for _ in range(3):
            at = int(rng.integers(0, n - SAMPLE_RATE_HZ))
            samples[at : at + dur] = synth_tone(freqs[0], dur, amplitude=6000.0)
        name = f"negative_{i:03d}.wav"
        audio_io.write_wav(os.path.join(out_dir, name), samples)
        lines.append(f"negative {name}")
    for i in range(num_positives):
        lead = int(rng.integers(200, 1200))
        samples, end_ms = synth_keyword_audio(config, num_units, lead_silence_ms=lead)
        name = f"positive_{i:03d}.wav"
        audio_io.write_wav(os.path.join(out_dir, name), samples)
        lines.append(f"positive {name} {end_ms}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_audio_corpus(manifest_path):
    """A manifest's corpus of WAV-file AudioStreams. Each file's header is
    checked here (see ``audio_io.open_wav``); its samples are read when it is
    scored."""
    def stream(path):
        with audio_io.open_wav(path) as wav:
            return AudioStream(path, wav.getnframes())

    neg_paths, pos_entries = audio_io.read_manifest(manifest_path)
    return SyntheticCorpus([stream(p) for p in neg_paths],
                           [PositiveExample(stream(p), end_ms) for p, end_ms in pos_entries])
