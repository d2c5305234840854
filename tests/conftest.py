import tracemalloc

import numpy as np
import pytest

import kwscascade as k
from kwscascade.audio_io import write_wav
from kwscascade.frontend import BLOCK_SAMPLES, SAMPLE_RATE_HZ
from kwscascade.synthetic import (
    AudioStream,
    make_random_embedding_model,
    make_tone_acoustic_model,
    synth_keyword_audio,
    synth_noise,
)

_ACCEPTANCE_RESULTS = []

# Stream lengths around the whole-file paths' block: one sample short of a
# block, one block, one sample over, two blocks and a hop, and 7 s.
BLOCK_EDGE_LENGTHS = [BLOCK_SAMPLES - 1, BLOCK_SAMPLES, BLOCK_SAMPLES + 1,
                      2 * BLOCK_SAMPLES + k.FrontendConfig().hop_samples, 7 * SAMPLE_RATE_HZ]


def traced_peak_mb(call):
    """The most memory ``call()`` held at once, numpy's buffers included, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def wav_stream(path, samples, events=()):
    """Write ``samples`` to the WAV file ``path``; the AudioStream that reads it."""
    write_wav(str(path), samples)
    return AudioStream(str(path), len(samples), list(events))


def record_acceptance(number, description, passed, detail=""):
    """Collect one acceptance-criterion verdict for the end-of-run summary."""
    _ACCEPTANCE_RESULTS.append((number, description, passed, detail))
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"  {number:>2}. {status}  {description}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def frontend_config():
    return k.FrontendConfig()


@pytest.fixture(scope="session")
def tone_stage1_model(frontend_config):
    return make_tone_acoustic_model(frontend_config, 3, name="stage1")


@pytest.fixture(scope="session")
def tone_stage2_model(frontend_config):
    return make_tone_acoustic_model(frontend_config, 3, stacked_frames=2, name="stage2")


@pytest.fixture(scope="session")
def embedding_model(frontend_config):
    return make_random_embedding_model(frontend_config, dim=64)


@pytest.fixture(scope="session")
def keyword_audio(frontend_config):
    """(samples, keyword_end_ms) with noise before and after the keyword."""
    rng = np.random.default_rng(5)
    kw, end_ms = synth_keyword_audio(frontend_config, 3, unit_ms=150)
    samples = np.concatenate([synth_noise(8000, rng), kw, synth_noise(24000, rng)])
    return samples, end_ms + 500


@pytest.fixture(scope="session")
def block_edge_clip(frontend_config):
    """7 s of quiet noise with a keyword across each of the first two block edges."""
    clip = synth_noise(7 * SAMPLE_RATE_HZ, np.random.default_rng(17)).astype(np.int32)
    keyword, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150)
    for edge in (BLOCK_SAMPLES, 2 * BLOCK_SAMPLES):
        start = edge - len(keyword) // 2
        clip[start : start + len(keyword)] += keyword
    return np.clip(clip, -32768, 32767).astype(np.int16)
