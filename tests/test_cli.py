import json
import struct
import subprocess
import sys

import numpy as np
import pytest

import kwscascade as k
from kwscascade import audio_io
from kwscascade.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from kwscascade.encoder import pad_model_to_size, serialize_model
from kwscascade.synthetic import (
    make_random_embedding_model,
    make_tone_acoustic_model,
    generate_audio_corpus,
    synth_keyword_audio,
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


class TestScore:
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

    @pytest.mark.parametrize("case, message", [
        ("short_profile", "num_units"),
        ("zero_profile", "zero"),
        ("acoustic_model", "not an embedding model"),
    ])
    def test_mismatched_speaker_pair_exits_2_before_any_audio(self, model_files, tmp_path,
                                                              capsys, case, message):
        # each ran silence to exit 0 and failed only at the first stage-2 accept
        from kwscascade import speaker

        rng = np.random.default_rng(4)
        vector = {"short_profile": rng.normal(size=32), "zero_profile": np.zeros(64),
                  "acoustic_model": rng.normal(size=64)}[case]
        profile = tmp_path / "profile.kwsv"
        profile.write_bytes(speaker.serialize_profile(
            speaker.SpeakerProfile(speaker.SpeakerSignature(vector, 1), 1, 0.6)))
        wav = tmp_path / "silence.wav"
        audio_io.write_wav(str(wav), np.zeros(32000, dtype=np.int16))
        model = model_files["stage2" if case == "acoustic_model" else "embedding"]
        code, out, err = run_cli(
            ["run-cascade", "--stage1", model_files["stage1"], "--stage2",
             model_files["stage2"], "--input", str(wav), "--speaker-model", model,
             "--speaker-profile", str(profile)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_raw_pcm_on_stdin(self, model_files, tmp_path):
        cfg = k.FrontendConfig()
        samples, _ = synth_keyword_audio(cfg, 3, unit_ms=150)
        config = tmp_path / "cascade.cfg"
        config.write_text(DECODER_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "kwscascade", "run-cascade",
             "--stage1", model_files["stage1"], "--stage2", model_files["stage2"],
             "--input", "-", "--config", str(config)],
            input=samples.astype("<i2").tobytes(),
            capture_output=True,
        )
        assert proc.returncode == EXIT_OK
        kinds = [json.loads(l)["event"] for l in proc.stdout.decode().strip().splitlines()]
        assert "stage1_trigger" in kinds


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
        stranger = speaker.enroll([speaker.SpeakerSignature(rng.normal(size=64), 1)],
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

    def test_descending_thresholds_rejected(self, model_files, tmp_path, capsys):
        code, _, err = run_cli(
            ["evaluate", "--manifest", "nope.txt", "--stage1", model_files["stage1"],
             "--stage2", model_files["stage2"], "--thresholds", "0.5,0.2"],
            capsys,
        )
        assert code == EXIT_USAGE


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
