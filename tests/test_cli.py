import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak_mb

import kwscascade as k
from kwscascade import audio_io, cli
from kwscascade.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from kwscascade.encoder import pad_model_to_size, serialize_model
from kwscascade.evaluation import cascade_table
from kwscascade.frontend import num_frames_for
from kwscascade.synthetic import (
    make_random_embedding_model,
    make_tone_acoustic_model,
    generate_audio_corpus,
    load_audio_corpus,
    synth_keyword_audio,
    synth_noise,
)

MODEL_DESC = """
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

# MODEL_DESC's layer 0 has weights in [-1, 1] and inputs in [-10, 10]: a bias
# of this many accumulator steps fits int32, but 255 * sum|w - z_w| over its
# first row takes the worst case past it
_NEAR_INT32_BIAS = (2**31 - 1 - 2000) * (2 / 255) * (20 / 255)

# name -> (edit of MODEL_DESC, what the error names); each exited 1 with a
# traceback, exited 0 writing a file load_model refuses, or (input_range_one_value)
# exited 2 with "not enough values to unpack"
BROKEN_DESCRIPTIONS = {
    "weight_rows_fewer_than_out": (lambda d: d[: d.index("0.0 0.0 1.0\nbias")],
                                   "expected a row of 3 values, but the text ended"),
    "bare_model_line": (lambda d: d.replace("model acoustic", "model"),
                        "line 2: expected 'model acoustic|embedding'"),
    "bias_1e30": (lambda d: d.replace("0.1 -0.2 0.0", "1e30 -0.2 0.0"),
                  "layer 0: bias does not fit int32"),
    "input_range_one_value": (lambda d: d.replace("input_range -10 10", "input_range -1"),
                              "line 7: expected 'input_range' and 2 values"),
    "second_layer_out_of_scale": (
        lambda d: d.replace("input_range 0 20", "input_range 0 1e-20").replace("0.0 0.0 0.5",
                                                                               "0.0 0.0 0.0"),
        "layer 1 input range is out of scale with layer 0"),
    "bias_just_under_int32": (lambda d: d.replace("0.1 -0.2 0.0", f"{_NEAR_INT32_BIAS!r} -0.2 0.0"),
                              "layer 0: can overflow the 32-bit accumulator"),
    "inf_weight": (lambda d: d.replace("0.5 -0.25 0.0 1.0", "0.5 -0.25 0.0 inf"),
                   "layer 0: non-finite range"),
    "infinite_input_range": (lambda d: d.replace("input_range -10 10", "input_range -inf inf"),
                             "layer 0: non-finite range"),
    "name_over_u16": (lambda d: d.replace("units 2", "units 2\nname " + "n" * 70000),
                      "model name exceeds 65535 UTF-8 bytes"),
}

DECODER_CONFIG = """
stage1.smoothing_window_frames = 10
stage1.threshold = 0.3
stage2.smoothing_window_frames = 10
stage2.threshold = 0.4
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    cfg = k.FrontendConfig()
    paths = {}
    for name, model in (
        ("stage1", make_tone_acoustic_model(cfg, 3)),
        ("stage2", make_tone_acoustic_model(cfg, 3, stacked_frames=2)),
        ("embedding", make_random_embedding_model(cfg)),
    ):
        path = root / f"{name}.kwsq"
        path.write_bytes(serialize_model(model))
        paths[name] = str(path)
    big = pad_model_to_size(make_tone_acoustic_model(cfg, 3), 13313)
    paths["oversized"] = str(root / "oversized.kwsq")
    (root / "oversized.kwsq").write_bytes(serialize_model(big))
    at_limit = pad_model_to_size(make_tone_acoustic_model(cfg, 3), 13312)
    paths["at_limit"] = str(root / "at_limit.kwsq")
    (root / "at_limit.kwsq").write_bytes(serialize_model(at_limit))
    return paths


@pytest.fixture(scope="module")
def keyword_wav(tmp_path_factory):
    cfg = k.FrontendConfig()
    samples, end_ms = synth_keyword_audio(cfg, 3, unit_ms=150)
    path = tmp_path_factory.mktemp("audio") / "keyword.wav"
    audio_io.write_wav(str(path), samples)
    return str(path), end_ms


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return generate_audio_corpus(21, str(root), num_positives=2, num_negatives=1,
                                 negative_seconds=4.0)


class TestQuantizeModel:
    def test_reports_byte_size_and_params(self, tmp_path, capsys):
        desc = tmp_path / "model.txt"
        desc.write_text(MODEL_DESC)
        out_path = tmp_path / "model.kwsq"
        code, out, _ = run_cli(["quantize-model", str(desc), str(out_path)], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["byte_size"] == out_path.stat().st_size
        assert len(report["layers"]) == 2
        assert report["layers"][0]["weight_zero_point"] == 128

    def test_bad_description_is_usage_error(self, tmp_path, capsys):
        desc = tmp_path / "bad.txt"
        desc.write_text("model acoustic\nbogus line\n")
        code, _, err = run_cli(["quantize-model", str(desc), str(tmp_path / "x")], capsys)
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("edit, named", list(BROKEN_DESCRIPTIONS.values()),
                             ids=list(BROKEN_DESCRIPTIONS))
    def test_broken_description_exits_2_naming_line_or_layer(self, tmp_path, capsys,
                                                             edit, named):
        desc, out_path = tmp_path / "broken.txt", tmp_path / "broken.kwsq"
        desc.write_text(edit(MODEL_DESC))
        code, out, err = run_cli(["quantize-model", str(desc), str(out_path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert named in err
        assert not out_path.exists()


def write_stream(path, posteriors, num_units):
    """Write float32 ``posteriors`` [T, M+1] as a binary stream, or as a CSV
    whose cells hold the same float32 values if ``path`` ends in .csv."""
    if str(path).endswith(".csv"):
        cells = posteriors.astype(np.float32).tolist()
        with open(path, "w") as fh:
            fh.write(",".join([*(f"unit_{u}" for u in range(num_units)), "filler"]) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in cells)
    else:
        with open(path, "wb") as fh:
            audio_io.write_posteriors(fh, posteriors, num_units)


class TestScore:
    BLOCK = audio_io.POSTERIOR_BLOCK_FRAMES
    FORMATS = ["kwsy", "csv"]

    def test_binary_stream_scores_and_alignment(self, tmp_path, capsys):
        posteriors = np.array(
            [[0.1, 0.1, 0.8], [0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.05, 0.9, 0.05]]
        )
        path = tmp_path / "posts.kwsy"
        with open(path, "wb") as fh:
            audio_io.write_posteriors(fh, posteriors, 2)
        code, out, _ = run_cli(["score", "--posteriors", str(path)], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "record,frame,score"
        assert len([l for l in lines if l.startswith("score,")]) == 4
        assert lines[-1].startswith("alignment,")

    def test_csv_stream(self, tmp_path, capsys):
        path = tmp_path / "posts.csv"
        path.write_text("unit_1,unit_2,filler\n0.9,0.0,0.1\n0.0,0.9,0.1\n")
        code, out, _ = run_cli(["score", "--posteriors", str(path)], capsys)
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4  # header + 2 scores + alignment

    def test_non_finite_stream_exits_2(self, tmp_path, capsys):
        posteriors = np.full((300, 3), 0.2)
        posteriors[100, 0] = np.nan
        path = tmp_path / "posts.kwsy"
        with open(path, "wb") as fh:
            audio_io.write_posteriors(fh, posteriors, 2)
        code, out, err = run_cli(["score", "--posteriors", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "frame 100 " in err
        assert out == ""

    def test_peak_grows_with_the_held_stream_only(self, tmp_path):
        # every frame's hypothesis was held until the stream ended: about 0.5 KB a frame
        def peak(frames):
            posteriors = np.random.default_rng(frames).uniform(0, 1, size=(frames, 4))
            path = tmp_path / f"posts_{frames}.kwsy"
            with open(path, "wb") as fh:
                audio_io.write_posteriors(fh, posteriors, 3)
            del posteriors
            with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
                return traced_peak_mb(lambda: main(["score", "--posteriors", str(path)]))

        # the read stream itself, 4 float32s in the file and 4 float64s a frame
        assert peak(4 * 20_000) - peak(20_000) < 60_000 * 0.06e-3

    def test_csv_peak_grows_with_the_held_stream_only(self, tmp_path):
        # the whole file was parsed into rows of Python floats: about 0.2 KB a frame
        def peak(frames):
            posteriors = np.random.default_rng(frames).uniform(0, 1, size=(frames, 4))
            path = tmp_path / f"posts_{frames}.csv"
            write_stream(path, posteriors, 3)
            del posteriors
            with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
                return traced_peak_mb(lambda: main(["score", "--posteriors", str(path)]))

        # the score rows that the CSV stream does not hold either
        assert peak(4 * 20_000) - peak(20_000) < 60_000 * 0.06e-3

    def test_csv_and_binary_streams_give_the_same_lines(self, tmp_path, capsys):
        # three of the reader's blocks, the last 5 frames long
        posteriors = np.random.default_rng(13).uniform(0, 1, size=(2 * self.BLOCK + 5, 4))
        posteriors[5000:5300, 1] = 0.0
        outs = []
        for name in ("posts.kwsy", "posts.csv"):
            write_stream(tmp_path / name, posteriors, 3)
            code, out, _ = run_cli(["score", "--posteriors", str(tmp_path / name)], capsys)
            assert code == EXIT_OK
            outs.append(out)
        assert len(outs[0].splitlines()) == 2 * self.BLOCK + 5 + 2
        assert outs[0] == outs[1]

    def test_blocks_give_the_one_push_lines(self, tmp_path, capsys):
        # three of the reader's blocks, the last 5 frames long
        frames = 2 * self.BLOCK + 5
        posteriors = np.random.default_rng(12).uniform(0, 1, size=(frames, 3))
        posteriors[4000:4200, 0] = 0.0
        path = tmp_path / "posts.kwsy"
        with open(path, "wb") as fh:
            audio_io.write_posteriors(fh, posteriors, 2)
        code, out, _ = run_cli(["score", "--posteriors", str(path)], capsys)
        units = posteriors[:, :2].astype("<f4").astype(np.float64)
        pairs = k.StreamingDecoder(k.DecoderConfig(2)).push(units)
        _, last = pairs[-1]
        want = ["record,frame,score", *(f"score,{f},{h.score:.9f}" for f, h in pairs),
                f"alignment,{last.end_frame},{','.join(map(str, last.alignment))}"]
        assert code == EXIT_OK
        assert out.splitlines() == want

    @pytest.mark.parametrize("bad, named", [
        # a NaN anywhere is named before an out-of-range posterior in an earlier block
        ({10: (0, 1.5), 2 * BLOCK + 3: (2, np.nan)},
         f"posterior stream frame {2 * BLOCK + 3} is not finite"),
        ({2 * BLOCK + 2: (1, -0.25)}, f"frame {2 * BLOCK + 2} has a posterior outside [0, 1]"),
        ({BLOCK + 1: (0, 2.0), 2 * BLOCK: (1, 1.5)},
         f"frame {BLOCK + 1} has a posterior outside [0, 1]"),
    ])
    @pytest.mark.parametrize("suffix", FORMATS)
    def test_stream_is_checked_whole_before_any_output(self, tmp_path, capsys, bad, named,
                                                       suffix):
        posteriors = np.full((2 * self.BLOCK + 5, 3), 0.2)
        for frame, (column, value) in bad.items():
            posteriors[frame, column] = value
        path = tmp_path / f"posts.{suffix}"
        write_stream(path, posteriors, 2)
        code, out, err = run_cli(["score", "--posteriors", str(path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        if suffix == "csv":
            named = named.replace("posterior stream", "posterior CSV")
        assert named in err

    @pytest.mark.parametrize("row", ["0.2,0.2,0.2,0.2", "0.2,0.2", "0.2,abc,0.2"])
    def test_bad_csv_row_in_a_later_block_names_its_line(self, tmp_path, capsys, row):
        # frame f is on line f + 2, after the header
        frame = 2 * self.BLOCK + 3
        lines = ["unit_1,unit_2,filler"] + ["0.2,0.2,0.6"] * (2 * self.BLOCK + 5)
        lines[frame + 1] = row
        path = tmp_path / "posts.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["score", "--posteriors", str(path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"posterior CSV line {frame + 2} is not 3 numbers: {row!r}" in err

    @pytest.mark.parametrize("value", ["1.5", "-0.25"])
    def test_posterior_outside_unit_range_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "posts.csv"
        path.write_text(f"unit_1,unit_2,filler\n0.9,0.0,0.1\n0.0,{value},0.1\n0.1,0.2,0.7\n")
        code, out, err = run_cli(["score", "--posteriors", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "frame 1 has a posterior outside [0, 1]" in err
        assert out == ""


class TestRunCascade:
    def test_events_as_json_lines(self, model_files, keyword_wav, tmp_path, capsys):
        config = tmp_path / "cascade.cfg"
        config.write_text(DECODER_CONFIG)
        wav, end_ms = keyword_wav
        code, out, _ = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", wav, "--config", str(config)],
            capsys,
        )
        assert code == EXIT_OK
        events = [json.loads(line) for line in out.strip().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["stage1_trigger", "stage2_accept"]
        assert abs(events[0]["timestamp_ms"] - end_ms) <= 250
        assert "alignment_ms" in events[1]

    def test_oversized_stage1_exits_3(self, model_files, keyword_wav, capsys):
        wav, _ = keyword_wav
        code, out, err = run_cli(
            ["run-cascade", "--stage1", model_files["oversized"], "--stage2",
             model_files["stage2"], "--input", wav],
            capsys,
        )
        assert code == EXIT_BUDGET
        assert out == ""
        assert "over budget by 1 bytes" in err

    def test_at_limit_stage1_accepted(self, model_files, keyword_wav, capsys):
        wav, _ = keyword_wav
        code, _, _ = run_cli(
            ["run-cascade", "--stage1", model_files["at_limit"], "--stage2",
             model_files["stage2"], "--input", wav],
            capsys,
        )
        assert code == EXIT_OK

    def test_unknown_config_key_exits_2_naming_key(self, model_files, keyword_wav,
                                                   tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("stage1.treshold = 0.5\n")
        wav, _ = keyword_wav
        code, _, err = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", wav, "--config", str(config)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "stage1.treshold" in err

    def test_non_finite_model_range_exits_2(self, model_files, keyword_wav,
                                            tmp_path, capsys):
        model = make_tone_acoustic_model(k.FrontendConfig(), 3)
        data = bytearray(serialize_model(model))
        layer = 18 + len(model.name.encode())  # first layer header
        struct.pack_into("<2f", data, layer + 12, -np.inf, np.inf)  # input range
        bad = tmp_path / "inf.kwsq"
        bad.write_bytes(bytes(data))
        wav, _ = keyword_wav
        code, out, err = run_cli(
            ["run-cascade", "--stage1", str(bad), "--stage2", model_files["stage2"],
             "--input", wav],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-finite range" in err

    def test_overflowing_bias_model_exits_2(self, model_files, keyword_wav,
                                            tmp_path, capsys):
        model = make_tone_acoustic_model(k.FrontendConfig(), 3)
        data = bytearray(serialize_model(model))
        struct.pack_into("<i", data, len(data) - 4, -(2**31))  # last bias
        bad = tmp_path / "bias.kwsq"
        bad.write_bytes(bytes(data))
        wav, _ = keyword_wav
        code, out, err = run_cli(
            ["run-cascade", "--stage1", str(bad), "--stage2", model_files["stage2"],
             "--input", wav],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "overflow the 32-bit accumulator" in err

    def test_negative_stage2_window_exits_2(self, model_files, keyword_wav, tmp_path,
                                            capsys):
        # a negative window used to print a reject stamped before its trigger
        config = tmp_path / "window.cfg"
        config.write_text(DECODER_CONFIG + "cascade.stage2_window_ms = -1000\n")
        wav, _ = keyword_wav
        code, out, err = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", wav, "--config", str(config)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "stage2_window_ms" in err

    def test_end_of_stream_decides_running_job(self, model_files, tmp_path, capsys):
        # 200 ms of silence after the keyword ends the stream inside the
        # stage-2 window, and a muted stage 2 never accepts
        samples, _ = synth_keyword_audio(k.FrontendConfig(), 3, unit_ms=150,
                                         trail_silence_ms=200)
        wav = tmp_path / "short_tail.wav"
        audio_io.write_wav(str(wav), samples)
        config = tmp_path / "muted.cfg"
        config.write_text(DECODER_CONFIG.replace("stage2.threshold = 0.4",
                                                 "stage2.threshold = 1.01"))
        code, out, _ = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", str(wav), "--config", str(config)],
            capsys,
        )
        assert code == EXIT_OK
        events = [json.loads(line) for line in out.strip().splitlines()]
        assert [e["event"] for e in events] == ["stage1_trigger", "stage2_reject"]
        assert events[-1]["timestamp_ms"] == len(samples) * 1000 // 16000

    @pytest.mark.parametrize("command", ["run-cascade", "verify"])
    @pytest.mark.parametrize("case, message", [
        ("short_profile", "num_units"),
        ("zero_profile", "zero"),
        ("acoustic_model", "not an embedding model"),
        ("narrow_model", "speaker model num_channels 16"),
    ])
    def test_mismatched_speaker_pair_exits_2_before_any_audio(self, model_files, tmp_path,
                                                              capsys, case, message, command):
        # each mismatch is found before the (absent) audio is read
        from kwscascade import speaker

        rng = np.random.default_rng(4)
        vector = {"short_profile": rng.normal(size=32), "zero_profile": np.zeros(64),
                  "acoustic_model": rng.normal(size=64), "narrow_model": rng.normal(size=64)}[case]
        profile = tmp_path / "profile.kwsv"
        profile.write_bytes(speaker.serialize_profile(
            speaker.SpeakerProfile(speaker.SpeakerSignature(vector), 1, 0.6)))
        absent = str(tmp_path / "absent.wav")
        model = model_files["stage2" if case == "acoustic_model" else "embedding"]
        if case == "narrow_model":
            model = str(tmp_path / "narrow.kwsq")
            Path(model).write_bytes(serialize_model(
                make_random_embedding_model(k.FrontendConfig(num_channels=16))))
        argv = (["run-cascade", "--stage1", model_files["stage1"], "--input", absent,
                 "--speaker-model", model, "--speaker-profile", str(profile)]
                if command == "run-cascade" else
                ["verify", absent, "--embedding-model", model, "--profile", str(profile)])
        code, out, err = run_cli([*argv, "--stage2", model_files["stage2"]], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err and "absent" not in err

    @pytest.mark.parametrize("given", ["--speaker-model", "--speaker-profile"])
    def test_half_a_speaker_check_exits_2(self, model_files, keyword_wav, capsys, given):
        wav, _ = keyword_wav
        code, out, err = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2", model_files["stage2"],
             "--input", wav, given, model_files["embedding"]],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--speaker-model and --speaker-profile go together" in err

    def test_raw_pcm_on_stdin(self, model_files, tmp_path, capsys):
        cfg = k.FrontendConfig()
        samples, _ = synth_keyword_audio(cfg, 3, unit_ms=150)
        config, wav = tmp_path / "cascade.cfg", tmp_path / "keyword.wav"
        config.write_text(DECODER_CONFIG)
        audio_io.write_wav(str(wav), samples)
        argv = ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
                model_files["stage2"], "--config", str(config), "--input"]
        proc = subprocess.run([sys.executable, "-m", "kwscascade", *argv, "-"],
                              input=samples.astype("<i2").tobytes(), capture_output=True)
        assert proc.returncode == EXIT_OK
        code, from_wav, _ = run_cli(argv + [str(wav)], capsys)
        assert code == EXIT_OK
        assert proc.stdout.decode() == from_wav
        assert "stage1_trigger" in from_wav

    def test_odd_byte_count_on_stdin_exits_2(self, model_files, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bytes(3201))))
        code, out, err = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", "-"],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "raw PCM has an odd byte count (3201)" in err

    def test_peak_does_not_grow_with_the_input(self, model_files, tmp_path, capsys,
                                               monkeypatch):
        # the whole input was read before the first push: 2 bytes a sample from a
        # WAV, 4 from stdin (the bytes and their int16 copy)
        argv = ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
                model_files["stage2"], "--input"]
        peaks = {}
        for seconds in (20, 120):
            samples = synth_noise(seconds * 16000, np.random.default_rng(seconds))
            wav, raw = tmp_path / f"noise_{seconds}.wav", tmp_path / f"noise_{seconds}.raw"
            audio_io.write_wav(str(wav), samples)
            raw.write_bytes(samples.astype("<i2").tobytes())
            del samples
            codes = []
            peaks["wav", seconds] = traced_peak_mb(lambda: codes.append(main(argv + [str(wav)])))
            with open(raw, "rb") as fh:
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(fh))
                peaks["stdin", seconds] = traced_peak_mb(lambda: codes.append(main(argv + ["-"])))
            assert codes == [EXIT_OK, EXIT_OK]
            assert capsys.readouterr().out == ""  # quiet noise wakes nothing
        for source in ("wav", "stdin"):
            assert abs(peaks[source, 120] - peaks[source, 20]) < 1.0, peaks

    def test_module_entry_help_exits_0(self):
        proc = subprocess.run([sys.executable, "-m", "kwscascade", "--help"],
                              capture_output=True)
        assert proc.returncode == EXIT_OK
        assert b"run-cascade" in proc.stdout


class TestVerifyCommand:
    def test_enroll_then_verify_same_audio_accepts(self, model_files, keyword_wav,
                                                   tmp_path, capsys):
        wav, _ = keyword_wav
        profile = tmp_path / "owner.kwsv"
        code, out, _ = run_cli(
            ["enroll", wav, wav, wav, "--stage2", model_files["stage2"],
             "--embedding-model", model_files["embedding"], "--out", str(profile)],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["num_enrollment_utterances"] == 3
        code, out, _ = run_cli(
            ["verify", wav, "--profile", str(profile), "--stage2", model_files["stage2"],
             "--embedding-model", model_files["embedding"]],
            capsys,
        )
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["accepted"] is True
        assert result["score"] > 0.9

    def test_mismatched_profile_rejects_with_exit_1(self, model_files, keyword_wav,
                                                    tmp_path, capsys):
        from kwscascade import speaker

        wav, _ = keyword_wav
        rng = np.random.default_rng(3)
        stranger = speaker.enroll([speaker.SpeakerSignature(rng.normal(size=64))],
                                  threshold=0.9)
        profile = tmp_path / "stranger.kwsv"
        profile.write_bytes(speaker.serialize_profile(stranger))
        code, out, _ = run_cli(
            ["verify", wav, "--profile", str(profile), "--stage2", model_files["stage2"],
             "--embedding-model", model_files["embedding"]],
            capsys,
        )
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["accepted"] is False

    def test_enrolled_clip_scores_1_in_the_cascade(self, model_files, keyword_wav, tmp_path,
                                                   capsys):
        # enroll and the cascade's speaker check embed the same stage-2 segment
        config = tmp_path / "decoder.cfg"
        config.write_text(DECODER_CONFIG)
        wav, _ = keyword_wav
        profile = tmp_path / "owner.kwsv"
        code, _, _ = run_cli(
            ["enroll", wav, "--stage2", model_files["stage2"], "--embedding-model",
             model_files["embedding"], "--out", str(profile), "--config", str(config)],
            capsys,
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2", model_files["stage2"],
             "--input", wav, "--config", str(config), "--speaker-model",
             model_files["embedding"], "--speaker-profile", str(profile)],
            capsys,
        )
        assert code == EXIT_OK
        events = [json.loads(line) for line in out.strip().splitlines()]
        assert events[-1]["event"] == "speaker_accept"
        assert events[-1]["speaker_score"] == 1.0

    @pytest.mark.parametrize("command", ["enroll", "verify"])
    def test_file_stage2_never_accepts_exits_2(self, model_files, tmp_path, capsys, command):
        from kwscascade import speaker

        noise = tmp_path / "noise.wav"
        audio_io.write_wav(str(noise), synth_noise(16000, np.random.default_rng(6)))
        profile = tmp_path / "owner.kwsv"
        if command == "verify":
            profile.write_bytes(speaker.serialize_profile(speaker.enroll(
                [speaker.SpeakerSignature(np.random.default_rng(3).normal(size=64))], 0.6)))
        rest = ["--out" if command == "enroll" else "--profile", str(profile)]
        code, out, err = run_cli(
            [command, str(noise), *rest, "--stage2", model_files["stage2"],
             "--embedding-model", model_files["embedding"]],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert str(noise) in err
        assert profile.exists() == (command == "verify")


class TestEvaluateAndGenCorpus:
    def test_end_to_end_table(self, model_files, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code, out, _ = run_cli(
            ["gen-corpus", "--seed", "21", "--out-dir", str(corpus_dir),
             "--positives", "3", "--negatives", "1", "--negative-seconds", "8"],
            capsys,
        )
        assert code == EXIT_OK
        manifest = json.loads(out)["manifest"]
        config = tmp_path / "eval.cfg"
        config.write_text(DECODER_CONFIG)
        code, out, err = run_cli(
            ["evaluate", "--manifest", manifest, "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", "0.2,0.35,0.5",
             "--stage2-threshold", "0.4", "--config", str(config)],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("stage1_threshold,")
        assert len(lines) == 1 + 4  # header, disabled row, three thresholds
        assert "Cascade FA/hr" in err
        # composition inequalities in the emitted CSV
        for line in lines[2:]:
            _, fa1, frr1, fac, frrc = line.split(",")
            assert float(fac) <= float(fa1)
            assert float(frrc) >= float(frr1)

    @pytest.mark.parametrize("flag, value, message", [
        ("--num-units", "0", "num_units 0 "),
        ("--num-units", "32", "num_units 32 "),  # one unit per channel step is 32 // 33 = 0
        ("--negative-seconds", "0.5", "negative_seconds 0.5 "),
        ("--negative-seconds", "1", "negative_seconds 1.0 "),
    ], ids=["units-0", "units-32", "negative-0.5s", "negative-1s"])
    def test_gen_corpus_bad_argument_exits_2_naming_it(self, tmp_path, capsys,
                                                       flag, value, message):
        corpus_dir = tmp_path / "corpus"
        code, out, err = run_cli(
            ["gen-corpus", "--seed", "1", "--out-dir", str(corpus_dir), flag, value], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert not corpus_dir.exists()

    @pytest.mark.parametrize("line, name", [
        ("eval.refractory_ms = inf", "refractory_ms"),  # was an OverflowError, exit 1
        ("eval.hit_window_ms = nan", "hit_window_ms"),  # was a 100 % FRR table, exit 0
        ("frontend.log_floor = nan", "log_floor"),  # was a 100 % FRR table, exit 0
    ])
    def test_bad_config_value_exits_2(self, model_files, small_manifest, tmp_path, capsys,
                                      line, name):
        config = tmp_path / "eval.cfg"
        config.write_text(DECODER_CONFIG + line + "\n")
        code, out, err = run_cli(
            ["evaluate", "--manifest", small_manifest, "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", "0.3",
             "--stage2-threshold", "0.4", "--config", str(config)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert name in err

    @pytest.mark.parametrize("thresholds, stage2_threshold, name", [
        ("nan", "0.4", "stage1_threshold"),
        ("nan,0.3", "0.4", "stage1_threshold"),  # NaN passed the ascending check
        ("0.3", "nan", "stage2_threshold"),
    ])
    def test_nan_threshold_exits_2(self, model_files, small_manifest, tmp_path, capsys,
                                   thresholds, stage2_threshold, name):
        # each printed a 100 % FRR table and exited 0
        config = tmp_path / "eval.cfg"
        config.write_text(DECODER_CONFIG)
        code, out, err = run_cli(
            ["evaluate", "--manifest", small_manifest, "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", thresholds,
             "--stage2-threshold", stage2_threshold, "--config", str(config)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert name in err

    def test_stage2_threshold_defaults_to_the_config_key(self, model_files, small_manifest,
                                                         tmp_path, capsys):
        config = tmp_path / "eval.cfg"
        config.write_text("stage2.threshold = 0.45\n")
        argv = ["evaluate", "--manifest", small_manifest, "--stage1", model_files["stage1"],
                "--stage2", model_files["stage2"], "--thresholds", "0.3,0.5",
                "--config", str(config)]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert err.startswith("# stage-2 threshold fixed at 0.45")
        code, flagged, _ = run_cli(argv + ["--stage2-threshold", "0.45"], capsys)
        assert code == EXIT_OK
        assert out == flagged

    def test_descending_thresholds_rejected(self, model_files, small_manifest, capsys):
        code, out, err = run_cli(
            ["evaluate", "--manifest", small_manifest, "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", "0.5,0.3"],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "--thresholds must be ascending" in err

    @pytest.mark.parametrize("thresholds, message", [
        # read every model and WAV first, then exited 2 with a ValueError not naming the flag
        ("abc", "--thresholds must be comma-separated numbers, got 'abc'"),
        ("0.3,", "--thresholds must be comma-separated numbers, got '0.3,'"),
        # a missing manifest was reported instead
        ("0.5,0.3", "--thresholds must be ascending"),
    ])
    def test_thresholds_checked_before_any_file_is_read(self, tmp_path, capsys, thresholds,
                                                         message):
        absent = str(tmp_path / "absent")
        code, out, err = run_cli(
            ["evaluate", "--manifest", absent, "--stage1", absent, "--stage2", absent,
             "--thresholds", thresholds, "--config", absent],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err
        assert "absent" not in err


class TestEvaluateOnePass:
    """evaluate frames each file once for both stages and holds one file at a time."""

    def test_pushes_each_frame_of_the_corpus_once(self, model_files, small_manifest,
                                                  monkeypatch, capsys):
        # each stage ran its own frontend over every file: twice the corpus's frames
        pushed = []
        push = k.FrontendStream.push

        def counting_push(stream, samples):
            frames = push(stream, samples)
            pushed.append(len(frames))
            return frames

        monkeypatch.setattr(k.FrontendStream, "push", counting_push)
        code, _, _ = run_cli(
            ["evaluate", "--manifest", small_manifest, "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", "0.3,0.5"],
            capsys,
        )
        corpus = load_audio_corpus(small_manifest)
        streams = corpus.negatives + [p.stream for p in corpus.positives]
        corpus_frames = sum(num_frames_for(s.num_samples, k.FrontendConfig()) for s in streams)
        assert code == EXIT_OK
        assert sum(pushed) == corpus_frames > 0

    def test_peak_does_not_grow_with_the_number_of_files(self, model_files, keyword_wav,
                                                         tmp_path, capsys):
        # every WAV was read before any was scored, so six 20 s negatives peaked
        # about 3.2 MB over one
        audio_io.write_wav(str(tmp_path / "noise.wav"),
                           synth_noise(20 * 16000, np.random.default_rng(4)))
        keyword, end_ms = keyword_wav

        def peak(negatives):
            manifest = tmp_path / f"manifest_{negatives}.txt"
            manifest.write_text("negative noise.wav\n" * negatives
                                + f"positive {keyword} {end_ms}\n")
            argv = ["evaluate", "--manifest", str(manifest), "--stage1", model_files["stage1"],
                    "--stage2", model_files["stage2"], "--thresholds", "0.3,0.5"]
            mb = traced_peak_mb(lambda: main(argv))
            assert capsys.readouterr().out.count("\n") == 4  # header and three rows
            return mb

        assert abs(peak(6) - peak(1)) < 1.0


def _wav_bytes(channels, sample_width):
    """A short 16 kHz WAV of silence in another layout than read_wav takes."""
    out = io.BytesIO()
    with wave.open(out, "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(sample_width)
        wav.setframerate(16000)
        wav.writeframes(bytes(400))
    return out.getvalue()


# name -> (the bytes of a broken WAV, from a good one's; what the error says
# after the path). The first three raised out of read_wav (wave.Error or
# EOFError), so the CLI exited 1 with a traceback; a data chunk cut by one
# byte exited 2 naming neither file nor fault, and one cut by 2000 bytes was
# read as a shorter file
BROKEN_WAVS = {
    "not_riff": (lambda good: b"not a RIFF file\n" * 4, "not a WAV file"),
    "empty": (lambda good: b"", "not a WAV file"),
    "truncated_to_30_bytes": (lambda good: good[:30], "not a WAV file"),
    "data_less_1_byte": (lambda good: good[:-1], "WAV data ends early"),
    "data_less_2000_bytes": (lambda good: good[:-2000], "WAV data ends early"),
    "stereo": (lambda good: _wav_bytes(2, 2), "expected mono audio, got 2 channels"),
    "8_bit": (lambda good: _wav_bytes(1, 1), "expected 16-bit PCM, got 8-bit"),
}


class TestBrokenWav:
    @pytest.mark.parametrize("kind", list(BROKEN_WAVS))
    def test_run_cascade_exits_2_naming_the_file(self, model_files, keyword_wav, tmp_path,
                                                 capsys, kind):
        bad = tmp_path / "broken.wav"
        edit, message = BROKEN_WAVS[kind]
        bad.write_bytes(edit(Path(keyword_wav[0]).read_bytes()))
        code, out, err = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", str(bad)],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{bad}: {message}" in err

    def test_evaluate_exits_2_naming_the_manifest_file(self, model_files, keyword_wav, tmp_path,
                                                       capsys):
        bad = tmp_path / "negative.wav"
        bad.write_bytes(Path(keyword_wav[0]).read_bytes()[:30])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"negative {bad.name}\npositive {Path(keyword_wav[0])} 900\n")
        code, out, err = run_cli(
            ["evaluate", "--manifest", str(manifest), "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", "0.3"],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{bad}: not a WAV file" in err


class TestModelChannels:
    """A frontend.num_channels the models do not read exits 2 before any audio is read."""

    @pytest.mark.parametrize("command", ["run-cascade", "evaluate", "enroll", "verify"])
    def test_mismatch_named_before_the_missing_input(self, model_files, tmp_path, capsys,
                                                      command):
        config = tmp_path / "narrow.cfg"
        config.write_text(DECODER_CONFIG + "frontend.num_channels = 16\n")
        absent = str(tmp_path / "absent.input")
        if command in ("run-cascade", "evaluate"):
            models = ["--stage1", model_files["stage1"], "--stage2", model_files["stage2"]]
            rest = (["--input", absent] if command == "run-cascade" else
                    ["--manifest", absent, "--thresholds", "0.3"])
        else:
            models = ["--stage2", model_files["stage2"],
                      "--embedding-model", model_files["embedding"]]
            rest = ([absent, "--out", str(tmp_path / "profile.kwsv")] if command == "enroll"
                    else [absent, "--profile", absent])
        code, out, err = run_cli([command, *models, *rest, "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "DimensionError" in err
        role = {"run-cascade": "stage-1", "evaluate": "scorer", "enroll": "stage-2",
                "verify": "stage-2"}[command]
        assert f"frontend.num_channels 16 != {role} model num_channels 32" in err
        assert "absent" not in err and "FileNotFoundError" not in err


class TestModelKind:
    """An embedding model given as a stage model exits 2 before any audio is read."""

    @pytest.mark.parametrize("command, flag, role", [
        ("run-cascade", "--stage1", "stage-1"),
        ("run-cascade", "--stage2", "stage-2"),
        ("evaluate", "--stage2", "scorer"),
        ("enroll", "--stage2", "stage-2"),
        ("verify", "--stage2", "stage-2"),
    ])
    def test_embedding_stage_model_named_before_the_missing_input(self, model_files, tmp_path,
                                                                   capsys, command, flag, role):
        absent = str(tmp_path / "absent.input")
        models = {"--stage1": model_files["stage1"], "--stage2": model_files["stage2"]}
        models[flag] = model_files["embedding"]
        if command in ("run-cascade", "evaluate"):
            argv = ["--stage1", models["--stage1"], "--stage2", models["--stage2"],
                    *(["--input", absent] if command == "run-cascade" else
                      ["--manifest", absent, "--thresholds", "0.3"])]
        else:
            argv = ["--stage2", models["--stage2"], "--embedding-model", model_files["embedding"],
                    absent, *(["--out", str(tmp_path / "profile.kwsv")] if command == "enroll"
                              else ["--profile", absent])]
        code, out, err = run_cli([command, *argv], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"DimensionError: the {role} model is not an acoustic model" in err
        assert "absent" not in err and "Traceback" not in err


class TestDeterminism:
    def test_same_seed_same_stdout(self, model_files, tmp_path):
        cfg = k.FrontendConfig()
        samples, _ = synth_keyword_audio(cfg, 3, unit_ms=150)
        wav = tmp_path / "kw.wav"
        audio_io.write_wav(str(wav), samples)
        config = tmp_path / "cascade.cfg"
        config.write_text(DECODER_CONFIG)
        cmd = [sys.executable, "-m", "kwscascade", "run-cascade",
               "--stage1", model_files["stage1"], "--stage2", model_files["stage2"],
               "--input", str(wav), "--config", str(config)]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == EXIT_OK
        assert first.stdout == second.stdout

    def test_gen_corpus_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "kwscascade", "gen-corpus", "--seed", "5",
                 "--out-dir", str(tmp_path / sub), "--positives", "2",
                 "--negatives", "1", "--negative-seconds", "4"],
                capture_output=True,
            )
            assert proc.returncode == EXIT_OK
            wav = (tmp_path / sub / "positive_000.wav").read_bytes()
            outs.append(wav)
        assert outs[0] == outs[1]


class TestHelp:
    def test_every_subcommand_has_help(self, capsys):
        for sub in ("quantize-model", "score", "run-cascade", "enroll", "verify",
                    "evaluate", "gen-corpus"):
            code, out, err = run_cli([sub, "--help"], capsys)
            assert code == 0
            assert sub in out or sub in err


@pytest.fixture(scope="module")
def silence_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "silence.wav"
    audio_io.write_wav(str(path), np.zeros(1600, dtype=np.int16))
    return str(path)


def run_cascade_with(config_text, model_files, wav, tmp_path, capsys, stage1="stage1"):
    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    return run_cli(
        ["run-cascade", "--stage1", model_files[stage1], "--stage2", model_files["stage2"],
         "--input", wav, "--config", str(config)],
        capsys,
    )


def _field(key):
    section, name, _ = cli.CONFIG_KEYS[key]
    return {f.name: f for f in dataclasses.fields(cli.SECTIONS[section])}[name]


def _build_section(key, values):
    """The config object of the key's section, from the loaded file's values."""
    section = cli.CONFIG_KEYS[key][0]
    cls = cli.SECTIONS[section]
    return cls(3, **values[section]) if cls is k.DecoderConfig else cls(**values[section])


def _step(value, parse, direction):
    """The next value of the key's type after ``value``, up (+1) or down (-1)."""
    return value + direction if parse is int else math.nextafter(value, direction * math.inf)


# every declared bound of every config-file key, read from the CLI's own table
BOUND_CASES = [
    pytest.param(key, op, bound, id=f"{key}-{op}")
    for key, (section, _, _) in cli.CONFIG_KEYS.items() if section in cli.SECTIONS
    for op, bound in _field(key).metadata["bounds"].items()
]
FLOAT_BOUNDED_KEYS = sorted({key for key, _, _ in (p.values for p in BOUND_CASES)
                             if cli.CONFIG_KEYS[key][2] is float})


class TestConfigBounds:
    """Each declared bound, at the bound and one step outside it."""

    def test_table_has_bounded_keys_of_every_section(self):
        sections = {cli.CONFIG_KEYS[key][0] for key, _, _ in (p.values for p in BOUND_CASES)}
        assert sections == set(cli.SECTIONS)
        assert FLOAT_BOUNDED_KEYS

    @pytest.mark.parametrize("key, op, bound", BOUND_CASES)
    def test_value_at_the_bound_loads(self, tmp_path, key, op, bound):
        _, name, parse = cli.CONFIG_KEYS[key]
        # a strict bound excludes the bound itself: its nearest inside value loads
        inward = 1 if op in ("ge", "gt") else -1
        value = _step(bound, parse, inward) if op in ("gt", "lt") else bound
        config = tmp_path / "at.cfg"
        config.write_text(f"{key} = {value!r}\n")
        built = _build_section(key, cli.load_config_file(str(config)))
        assert getattr(built, name) == value

    @pytest.mark.parametrize("key, op, bound", BOUND_CASES)
    def test_value_outside_the_bound_exits_2(self, model_files, silence_wav, tmp_path,
                                             capsys, key, op, bound):
        _, name, parse = cli.CONFIG_KEYS[key]
        outward = -1 if op in ("ge", "gt") else 1
        value = bound if op in ("gt", "lt") else _step(bound, parse, outward)
        code, out, err = run_cascade_with(f"{key} = {value!r}\n", model_files, silence_wav,
                                          tmp_path, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"ConfigError: {name} must be" in err

    @pytest.mark.parametrize("key", FLOAT_BOUNDED_KEYS)
    def test_nan_exits_2(self, model_files, silence_wav, tmp_path, capsys, key):
        code, out, err = run_cascade_with(f"{key} = nan\n", model_files, silence_wav,
                                          tmp_path, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"ConfigError: {cli.CONFIG_KEYS[key][1]} must be" in err


class TestConfigKeys:
    def test_negative_budget_line_cannot_make_room_for_a_model(self, model_files, keyword_wav,
                                                               tmp_path, capsys):
        # the lines summed to the total, so this passed a 13313-byte stage 1, exit 0
        wav, _ = keyword_wav
        code, out, err = run_cascade_with(
            "budget.program_bytes = -1000\nbudget.model_budget_bytes = 14312\n",
            model_files, wav, tmp_path, capsys, stage1="oversized")
        assert code == EXIT_USAGE
        assert out == ""
        assert "ConfigError: program_bytes must be >= 0" in err

    @pytest.mark.parametrize("word, enabled", [
        ("1", True), ("TRUE", True), ("On", True), ("yes", True),
        ("0", False), ("false", False), ("OFF", False), ("No", False),
    ])
    def test_noise_suppression_words(self, tmp_path, word, enabled):
        config = tmp_path / "switch.cfg"
        config.write_text(f"frontend.noise_suppression = {word}\n")
        frontend = k.FrontendConfig(**cli.load_config_file(str(config))["frontend"])
        assert frontend.noise_suppression_enabled is enabled

    @pytest.mark.parametrize("word", ["ture", "", "2", "enabled"])
    def test_noise_suppression_rejects_other_words(self, model_files, silence_wav, tmp_path,
                                                   capsys, word):
        # "ture" used to switch the tracker off, exit 0
        code, out, err = run_cascade_with(f"frontend.noise_suppression = {word}\n",
                                          model_files, silence_wav, tmp_path, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "frontend.noise_suppression" in err

    @pytest.mark.parametrize("line", [
        "stage1.num_units = 3",  # the model's units are the only value that works
        "stage2.num_units = 3",
        "speaker.threshold = 0.2",  # overrode enroll --threshold
        "cascade.buffer_capacity_samples = 32000",  # the ring is budget.buffer_bytes // 2
    ])
    def test_removed_keys_are_unknown(self, model_files, silence_wav, tmp_path, capsys, line):
        code, out, err = run_cascade_with(line + "\n", model_files, silence_wav, tmp_path,
                                          capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"unknown config key {line.split()[0]!r}" in err

    def test_audio_line_under_one_sample_exits_2(self, model_files, silence_wav, tmp_path,
                                                 capsys):
        code, out, err = run_cascade_with("budget.buffer_bytes = 1\n", model_files,
                                          silence_wav, tmp_path, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "ConfigError: buffer_bytes" in err

    def test_help_lists_every_key(self, capsys):
        code, out, _ = run_cli(["run-cascade", "--help"], capsys)
        assert code == 0
        listed = out.split("config file keys", 1)[1].split()
        assert [word for word in listed if "." in word] == list(cli.CONFIG_KEYS)


def _readme_config_table():
    """(key, default) per row of the README's config-file table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Config file", 1)[1]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
            rows.append((key.strip("`"), default))
        elif rows and not line.startswith("|"):
            break
    return rows


class TestReadmeConfigTable:
    def test_keys_equal_the_cli_table(self):
        assert [key for key, _ in _readme_config_table()] == list(cli.CONFIG_KEYS)

    def test_defaults_equal_the_field_defaults(self):
        table_args = inspect.signature(cascade_table).parameters
        for key, cell in _readme_config_table():
            section, name, parse = cli.CONFIG_KEYS[key]
            default = (table_args[name].default if section == "eval"
                       else _field(key).default)
            assert parse(cell) == default, key
