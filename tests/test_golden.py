"""Golden outputs: the bytes of every CLI command, pinned by digest.

Every run goes through ``cli.main`` in-process, on inputs built here from
``synthetic`` with fixed seeds: four tapes, a ``gen-corpus`` tree, models
from ``quantize-model`` and a profile from ``enroll``. The commands that
read a config file run under each of four configs. The sha256 of each
run's stdout, stderr and every file it writes, with its exit code, is
checked against ``golden_digests.json``. A change that moves an output
regenerates the table in the same commit and says which rows moved and why:

    PYTHONPATH=src python tests/test_golden.py

The fixed-point frontend's rows are byte-exact on every platform by
contract. The float frontend's rows go through ``np.fft.rfft``, which numpy
1.x computes with other code than numpy 2. So under numpy 1.x those rows are
checked loosely: the exit code and the printed text with every decimal
number rounded to 6 places, which keeps event kinds and sample-clock
timestamps exact and scores to the 6 places ``run-cascade`` prints.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kwscascade import audio_io, cli
from kwscascade.frontend import FrontendConfig
from kwscascade.synthetic import (speech_like_noise, synth_keyword_audio, synth_noise,
                                  tone_unit_channels)

TABLE = Path(__file__).with_name("golden_digests.json")
NUMPY_1 = int(np.__version__.split(".")[0]) < 2

UNITS = 3
DECODER = """\
stage1.smoothing_window_frames = 10
stage1.threshold = 0.3
stage2.smoothing_window_frames = 10
stage2.threshold = 0.4
"""
# name -> config file text (None: no --config); the float frontend's are FLOAT_CONFIGS
CONFIGS = {
    "plain": None,
    "decoder": DECODER,
    "noise": DECODER + "frontend.noise_suppression = on\n",
    "fixed": DECODER + "frontend.arithmetic_mode = fixed_point\n",
}
FLOAT_CONFIGS = ("plain", "decoder", "noise")
TAPES = ("keyword", "keyword_then_faint", "speech", "noise")


def _description(kind, stacked, units, layers):
    """A quantize-model text description; ``layers`` are (activation, input
    range, [out, in] weights, bias)."""
    lines = [f"model {kind}", f"channels {FrontendConfig().num_channels}",
             f"stacked {stacked}", f"units {units}"]
    for act, (lo, hi), weights, bias in layers:
        lines += [f"layer {act} {weights.shape[1]} {weights.shape[0]}",
                  f"input_range {lo} {hi}", "weights"]
        lines += [" ".join(map(repr, row)) for row in weights.tolist()]
        lines += ["bias", " ".join(map(repr, bias.tolist()))]
    return "\n".join(lines) + "\n"


def _tone_description(stacked):
    """The tone detector of synthetic.make_tone_acoustic_model."""
    channels = FrontendConfig().num_channels
    weights = np.zeros((UNITS + 1, channels * stacked))
    for unit, ch in enumerate(tone_unit_channels(FrontendConfig(), UNITS)):
        weights[unit, ch::channels] = 1.0 / stacked
    bias = np.zeros(UNITS + 1)
    bias[UNITS] = 22.0
    return _description("acoustic", stacked, UNITS, [("softmax", (-30, 30), weights, bias)])


def _embedding_description(dim=16, hidden=16):
    rng = np.random.default_rng(7)
    channels = FrontendConfig().num_channels
    return _description("embedding", 1, dim, [
        ("relu", (-30, 30), rng.normal(0.0, 0.3, (hidden, channels)),
         rng.normal(0.0, 0.5, hidden)),
        ("none", (0, 40), rng.normal(0.0, 0.3, (dim, hidden)), np.zeros(dim)),
    ])


def _tapes():
    cfg = FrontendConfig()
    rng = np.random.default_rng(3)
    keyword, _ = synth_keyword_audio(cfg, UNITS)
    # short faint units: stage 1 wakes on them under DECODER and stage 2 rejects
    faint, _ = synth_keyword_audio(cfg, UNITS, unit_ms=40, amplitude=2000.0)
    bare, _ = synth_keyword_audio(cfg, UNITS, lead_silence_ms=0, trail_silence_ms=0)
    speech = speech_like_noise(48000, seed=2, rms=1500.0).astype(np.int32)
    for at in (8000, 30000):
        speech[at : at + len(bare)] += bare
    return {
        "keyword": keyword,
        "keyword_then_faint": np.concatenate([synth_noise(8000, rng), keyword,
                                              synth_noise(12000, rng), faint]),
        "speech": np.clip(speech, -32768, 32767),
        "noise": synth_noise(24000, rng),
    }


def _posteriors():
    """3000 frames of low unit posteriors with three keywords planted, filler last."""
    rng = np.random.default_rng(4)
    rows = rng.uniform(0.0, 0.2, (3000, UNITS + 1))
    for start in (500, 1500, 2500):
        for unit in range(UNITS):
            rows[start + 20 * unit : start + 20 * unit + 15, unit] = 0.9
    return rows


def write_inputs():
    """Write every input into the working directory."""
    for name, stacked in (("stage1", 1), ("stage2", 2)):
        Path(f"{name}.txt").write_text(_tone_description(stacked))
    Path("embedding.txt").write_text(_embedding_description())
    for name, samples in _tapes().items():
        audio_io.write_wav(f"{name}.wav", samples)
    with open("posteriors.kwsy", "wb") as fh:
        audio_io.write_posteriors(fh, _posteriors(), UNITS)
    for name, text in CONFIGS.items():
        if text is not None:
            Path(f"{name}.cfg").write_text(text)


def golden_runs():
    """(row, argv) in run order; a run may read the files earlier runs wrote."""
    for model in ("stage1", "stage2", "embedding"):
        yield f"quantize-model/{model}", ["quantize-model", f"{model}.txt", f"{model}.kwsq"]
    yield "gen-corpus", ["gen-corpus", "--seed", "21", "--out-dir", "corpus", "--positives", "2",
                         "--negatives", "1", "--negative-seconds", "3"]
    for name, text in CONFIGS.items():
        config = [] if text is None else ["--config", f"{name}.cfg"]
        stage2 = ["--stage2", "stage2.kwsq"]
        speaker = stage2 + ["--embedding-model", "embedding.kwsq"]
        profile = f"{name}.profile"
        yield f"{name}/score", ["score", "--posteriors", "posteriors.kwsy", *config]
        yield f"{name}/enroll", ["enroll", "keyword.wav", "keyword_then_faint.wav",
                                 "speech.wav", *speaker, "--out", profile,
                                 "--threshold", "0.9", *config]
        yield f"{name}/enroll-noise", ["enroll", "noise.wav", *speaker,
                                       "--out", f"{name}-noise.profile", *config]
        for tape in TAPES:
            cascade = ["run-cascade", "--stage1", "stage1.kwsq", *stage2,
                       "--input", f"{tape}.wav", *config]
            yield f"{name}/run-cascade/{tape}", cascade
            yield f"{name}/run-cascade-speaker/{tape}", cascade + [
                "--speaker-model", "embedding.kwsq", "--speaker-profile", profile]
            yield f"{name}/verify/{tape}", ["verify", f"{tape}.wav", "--profile", profile,
                                            *speaker, *config]
        yield f"{name}/evaluate", ["evaluate", "--manifest", "corpus/manifest.txt",
                                   "--stage1", "stage1.kwsq", *stage2,
                                   "--thresholds", "0.3,0.5,0.7", "--stage2-threshold", "0.45",
                                   *config]


def _sha(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _files():
    return {os.path.join(root, f) for root, _, names in os.walk(".") for f in names}


def _rounded(text):
    return re.sub(r"-?\d+\.\d+(?:e[-+]?\d+)?", lambda m: f"{float(m.group()):.6f}", text)


def run_golden(workdir):
    """Build the inputs in ``workdir``, run every command there: {row: digests}."""
    home = os.getcwd()
    os.chdir(workdir)
    try:
        write_inputs()
        digests = {}
        for row, argv in golden_runs():
            before = _files()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            written = {}
            for path in sorted(_files() - before):
                written[path[2:]] = _sha(Path(path).read_bytes())
            digests[row] = {"exit": code, "stdout": _sha(out.getvalue()),
                            "stderr": _sha(err.getvalue()), "files": written}
            if row.split("/")[0] in FLOAT_CONFIGS:
                digests[row]["rounded"] = _sha(_rounded(out.getvalue() + "\0" + err.getvalue()))
        return digests
    finally:
        os.chdir(home)


GOLDEN = json.loads(TABLE.read_text()) if TABLE.exists() else {}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


def test_every_run_has_a_row(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_output_matches_its_digests(outputs, row):
    got, want = outputs[row], GOLDEN[row]
    if NUMPY_1 and "rounded" in want:
        got, want = ({key: d[key] for key in ("exit", "rounded")} for d in (got, want))
    assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = run_golden(scratch)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"{TABLE}: {len(table)} rows\n")
