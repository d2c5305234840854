"""Tests of the benchmark's own arithmetic, checks and tracing.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import layers
import report
import run
import workloads
from spans import Hook, Instrumented, SpanLog, span_totals


@pytest.fixture(scope="module")
def pkg():
    # Everything in this module is built from this one import (see
    # run.import_package on why imports must not be mixed).
    return run.import_package()


# -- span arithmetic ----------------------------------------------------------


def scripted_log(ticks):
    ticks = iter(ticks)
    return SpanLog(clock=lambda: next(ticks))


def test_self_time_subtracts_each_child_once():
    #   a: 0 ........................ 10
    #   b:    1 ..... 3   b: 4 ... 6
    #   d:      2 . 3
    log = scripted_log([0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 6.0, 10.0])
    log.request_id = 7
    a = log.begin("a")
    b = log.begin("b")
    d = log.begin("d")
    log.finish(d)
    log.finish(b)
    b2 = log.begin("b")
    log.finish(b2)
    log.finish(a)
    totals = span_totals(log)
    assert totals["a"] == (10.0, 6.0, 1)
    assert totals["b"] == (4.0, 3.0, 2)
    assert totals["d"] == (1.0, 1.0, 1)
    assert list(log.parent) == [-1, a, b, a]
    assert set(log.request) == {7}


def test_self_time_clips_a_child_to_its_parent():
    log = scripted_log([0.0, 1.0, 5.0, 4.0])  # child ends after its parent
    a = log.begin("a")
    b = log.begin("b")
    log.finish(b)
    log.finish(a)
    assert span_totals(log)["a"][1] == pytest.approx(1.0)


def test_empty_log_has_no_totals():
    assert span_totals(SpanLog()) == {}


# -- percentile rule and verdicts ---------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (100_000, "99.9"), (10_000, "99.9"), (9_999, "99"), (1000, "99"), (999, "95"),
    (200, "95"), (199, "90"), (100, "90"), (40, "75"), (20, "50"), (19, None), (0, None),
])
def test_highest_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert report.highest_supported_percentile(n) == expected


def test_verdicts_against_the_bound():
    old = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert report.verdict(old, [v * 1.2 for v in old], "lower", 0.1)[0] == "worse"
    assert report.verdict(old, [v * 1.05 for v in old], "lower", 0.1)[0] == "unchanged"
    pairs = [(v, v * 0.8) for v in old]
    assert report.verdict(old, [v * 0.8 for v in old], "lower", 0.1, pairs)[0] == "better"
    assert report.verdict(old, [v * 0.8 for v in old], "higher", 0.1, pairs)[0] == "worse"
    wide = [0.5, 1.0, 1.5, 0.7, 1.3]
    assert report.verdict(old, wide, "lower", 0.1)[0] == "unresolved"


# -- output checks ------------------------------------------------------------


def test_keyword_check_needs_an_accept_near_each_due_keyword():
    ends = [1000, 5000, 9000]
    assert workloads.missed_keywords(ends, [900, 5100], stream_ms=11_000) == []
    assert workloads.missed_keywords(ends, [900], stream_ms=11_000) == [5000]
    assert workloads.missed_keywords(ends, [900, 5300], stream_ms=11_000) == [5000]
    assert workloads.missed_keywords(ends, [], stream_ms=12_000) == [1000, 5000, 9000]


def test_fixed_feature_digest_holds_and_catches_one_changed_bit(pkg, tmp_path):
    workload = workloads.WORKLOADS["always-on-fixed"]
    state = workload.setup(pkg, workload.generate(pkg, 5, str(tmp_path)))
    clip = state.tape[: workloads.REFERENCE_SECONDS * workloads.SAMPLE_RATE_HZ]
    frames = workloads.reference_features(pkg, clip)
    assert workloads.digest_problems(frames) == []
    frames[50].channels = frames[50].channels.copy()
    frames[50].channels[3] += 2.0 ** -16
    assert workloads.digest_problems(frames)


@pytest.fixture(scope="module")
def small_oracle(pkg):
    corpus = pkg.synthetic.generate_posterior_corpus(
        seed=3, negative_streams=1, negative_minutes_each=10.0, num_positives=20)
    config = pkg.synthetic.oracle_decoder_config()
    table = pkg.evaluation.cascade_table(
        pkg.evaluation.DecoderScorer(config, "stage1"),
        pkg.evaluation.DecoderScorer(config, "stage2"),
        corpus, workloads.ORACLE_THRESHOLDS, workloads.ORACLE_STAGE2_THRESHOLD,
        speaker_verification=True)
    return corpus, table


@pytest.mark.parametrize("row, column, delta", [
    (0, "cascade_fa_per_hr", 6.0), (1, "stage1_fa_per_hr", -6.0),
    (2, "cascade_frr", 0.05), (4, "stage1_frr", 0.05),
])
def test_oracle_table_check_catches_a_corrupted_cell(small_oracle, row, column, delta):
    corpus, table = small_oracle
    args = (corpus, workloads.ORACLE_THRESHOLDS, workloads.ORACLE_STAGE2_THRESHOLD)
    assert workloads.oracle_table_problems(table, *args) == []
    original = getattr(table.rows[row], column)
    setattr(table.rows[row], column, original + delta)
    try:
        assert workloads.oracle_table_problems(table, *args)
    finally:
        setattr(table.rows[row], column, original)


def test_evaluate_check_catches_bad_output():
    good = ("stage1_threshold,stage1_fa_per_hr,stage1_frr,cascade_fa_per_hr,cascade_frr\n"
            ",,,0.0,0.0\n0.3,0.0,0.0,0.0,0.0\n")
    assert workloads.evaluate_output_problems(0, good) == []
    assert workloads.evaluate_output_problems(2, good)
    assert workloads.evaluate_output_problems(0, good.replace("0.3,0.0,0.0,0.0,0.0",
                                                              "0.3,0.0,0.1,0.0,0.1"))
    assert workloads.evaluate_output_problems(0, good.replace(",,,0.0,0.0", ",,,36.0,0.0"))
    assert workloads.evaluate_output_problems(0, "")


# -- tracing ------------------------------------------------------------------


def keyword_cascade(pkg):
    kws, syn = pkg.kws, pkg.synthetic
    frontend = kws.FrontendConfig(arithmetic_mode=kws.ArithmeticMode.FIXED_POINT)
    config = kws.CascadeConfig(
        frontend=frontend,
        stage1_decoder=kws.DecoderConfig(3, smoothing_window_frames=10, threshold=0.3),
        stage2_decoder=kws.DecoderConfig(3, smoothing_window_frames=10, threshold=0.4),
    )
    keyword, _ = syn.synth_keyword_audio(frontend, 3, unit_ms=150)
    audio = np.concatenate([keyword, np.zeros(16000, dtype=np.int16)])
    return (lambda: kws.Cascade(config, syn.make_tone_acoustic_model(frontend, 3),
                                syn.make_tone_acoustic_model(frontend, 3, stacked_frames=2))), audio


def traced_pushes(log, hooks, make, audio):
    with Instrumented(log, hooks) as inst:
        cascade = make()
        for start in range(0, len(audio), 1600):
            cascade.push_audio(audio[start : start + 1600])
    return inst


def test_hooks_attribute_stages_and_restore_the_package(pkg):
    make, audio = keyword_cascade(pkg)
    original = pkg.kws.Cascade.push_audio
    log = SpanLog()
    traced_pushes(log, layers.make_hooks(), make, audio)
    assert pkg.kws.Cascade.push_audio is original
    assert pkg.speaker.forward_vector is pkg.encoder.forward_vector
    metrics = layers.layer_metrics(log, set())
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["cascade.wakes"] == value["cascade.accepts"] == 1
    assert value["cascade.stage1.frames"] > value["cascade.stage2.frames"] > 0
    assert value["fixedpoint.fft.calls"] == value["frontend.frames"] > 0
    assert value["decoder.stream.calls"] == value["encoder.frames"]
    assert value["cascade.stage1.ms"] > 0 and value["cascade.stage2.ms"] > 0


def test_missing_entry_point_gives_a_null_layer_not_a_crash(pkg):
    make, audio = keyword_cascade(pkg)
    hooks = layers.make_hooks() + [
        Hook("speaker", "kwscascade.speaker:renamed_away", "speaker.embed"),
        Hook("audio_io", "kwscascade.no_such_module:read", "audio_io.read"),
    ]
    log = SpanLog()
    inst = traced_pushes(log, hooks, make, audio)
    assert inst.missing_layers == {"speaker", "audio_io"}
    assert any("renamed_away" in note for note in inst.notes)
    metrics = layers.layer_metrics(log, inst.missing_layers)
    for name, entry in metrics.items():
        layer = name.split(".")[0]
        assert (entry["value"] is None) == (layer in ("speaker", "audio_io")), name
    assert metrics["cascade.wakes"]["value"] == 1


def test_traced_pass_counts_only_the_timed_pass(pkg, tmp_path):
    # The digest check pushes the reference clip through a fresh frontend;
    # it must run after the hooks are restored, or its frames would count.
    workload = workloads.WORKLOADS["always-on-fixed"]
    state = workload.setup(pkg, workload.generate(pkg, 5, str(tmp_path)))
    base = workload.run(state, None)
    metrics, traced, _, _ = run.traced_metrics(workload, state, base)
    assert traced.failed == 0
    value = {name: entry["value"] for name, entry in metrics.items()}

    log = SpanLog()
    with Instrumented(log, layers.make_hooks()):
        state.cascade = state.make_cascade()
        workload.run(state, None, log)
    bare = {name: entry["value"] for name, entry in layers.layer_metrics(log, set()).items()}

    hop_ms = 10
    assert value["cascade.stage1.frames"] == state.tape_ms // hop_ms
    assert value["fixedpoint.fft.calls"] == value["frontend.frames"]
    assert value["fixedpoint.fft.calls"] == bare["fixedpoint.fft.calls"]
    assert value["fixedpoint.ln.calls"] == bare["fixedpoint.ln.calls"]


def test_relative_cost_divides_each_block_by_its_yardstick_speed():
    m = workloads.Measured(block_audio_s=10.0)
    m.block_s = [1.0, 3.0, 2.0]
    m.block_cpu_s = [2.0, 6.0, 4.0]
    m.yardstick_frame_s = [1e-4, 2e-4, 2e-4]  # the machine ran slower for the last two
    # 10 000, 15 000 and 10 000 yardstick frames' worth: the median block
    assert m.relative_cost() == pytest.approx(10_000 * workloads.YARDSTICK_FRAME_S)
    assert m.relative_cost(cpu=True) == pytest.approx(20_000 * workloads.YARDSTICK_FRAME_S)
    assert m.block_cost() == 2.0


def test_yardstick_slices_run_inside_an_operation_and_are_taken_out():
    m = workloads.Measured(block_audio_s=1.0)
    with m.measuring(None):
        m.start_block()
        m.timed(lambda: workloads.yardstick(10_000))  # several timer periods long
        m.end_block()
    ys = m.yardstick
    assert ys.frames >= 2 * workloads.YARDSTICK_SLICE_FRAMES
    assert 0 < m.op_s[0] < m.op_s[0] + ys.seconds
    assert m.yardstick_frame_s[0] == pytest.approx(ys.seconds / ys.frames)
    frames = ys.frames
    workloads.yardstick(10_000)  # the timer is off outside the block
    assert ys.frames == frames
