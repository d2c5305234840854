import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kwscascade as k
from kwscascade.cascade import (
    BudgetViolationError,
    Cascade,
    CascadeConfig,
    CascadeStats,
    DetectorStream,
    EventKind,
    LifecycleError,
    MemoryBudget,
    RingBuffer,
    enforce_budget,
    stage2_pass,
)
from kwscascade.decoder import DecoderConfig
from kwscascade.encoder import (Activation, EncoderModel, ModelKind, pad_model_to_size,
                                quantize_layer)
from kwscascade.frontend import BLOCK_SAMPLES, SAMPLE_RATE_HZ, ConfigError, num_frames_for
from kwscascade.quantize import AccumMode, DimensionError, QuantParams
from kwscascade.synthetic import (
    make_random_embedding_model,
    make_tone_acoustic_model,
    synth_keyword_audio,
    synth_noise,
)
from kwscascade import speaker


def make_cascade_config(frontend_config, threshold1=0.3, threshold2=0.4, units=3, **windows):
    return CascadeConfig(
        frontend=frontend_config,
        stage1_decoder=DecoderConfig(units, smoothing_window_frames=10,
                                     score_window_frames=100, threshold=threshold1),
        stage2_decoder=DecoderConfig(units, smoothing_window_frames=10,
                                     score_window_frames=100, threshold=threshold2),
        **windows,
    )


class TestRingBuffer:
    def test_underfull_snapshot_in_write_order(self):
        ring = RingBuffer(32000)
        ring.write(np.arange(10, dtype=np.int16))
        snap = ring.snapshot()
        assert list(snap) == list(range(10))

    def test_wraparound_keeps_most_recent(self):
        ring = RingBuffer(32000)
        data = np.arange(32005, dtype=np.int64) % 30000
        ring.write(data.astype(np.int16))
        snap = ring.snapshot()
        assert len(snap) == 32000
        assert np.array_equal(snap, data[-32000:].astype(np.int16))

    def test_snapshot_is_pure_read(self):
        ring = RingBuffer(100)
        ring.write(np.arange(150, dtype=np.int16))
        assert np.array_equal(ring.snapshot(), ring.snapshot())

    def test_snapshot_is_a_copy(self):
        ring = RingBuffer(8)
        ring.write(np.arange(8, dtype=np.int16))
        snap = ring.snapshot()
        ring.write(np.full(4, 99, dtype=np.int16))
        assert list(snap) == list(range(8))

    def test_random_write_patterns_match_flat_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cap = int(rng.integers(1, 64))
            ring = RingBuffer(cap)
            flat = np.zeros(0, dtype=np.int16)
            for _ in range(int(rng.integers(1, 12))):
                chunk = rng.integers(-32768, 32767, int(rng.integers(0, 3 * cap))).astype(np.int16)
                ring.write(chunk)
                flat = np.concatenate([flat, chunk])
                assert np.array_equal(ring.snapshot(), flat[-cap:])
                assert ring.total_written == len(flat)

    def test_out_of_range_sample_rejected_not_wrapped(self):
        ring = RingBuffer(8)
        with pytest.raises(ConfigError):
            ring.write(np.array([40000, 0]))
        assert ring.total_written == 0

    def test_default_capacity_is_64kb_of_samples(self, frontend_config, tone_stage1_model,
                                                 tone_stage2_model):
        # the ring has no default of its own: a Cascade sizes it to the budget's line
        cascade = Cascade(CascadeConfig(frontend=frontend_config), tone_stage1_model,
                          tone_stage2_model)
        assert cascade._ring.capacity_samples * 2 == 64000



class TestMemoryBudget:
    def test_default_partition_fits(self):
        b = MemoryBudget()
        used = b.program_bytes + b.tables_bytes + b.buffer_bytes + b.model_budget_bytes
        assert used == 25600 + 12288 + 64000 + 13312
        assert used <= b.total_bytes == 131072

    def test_oversubscribed_partition_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(model_budget_bytes=30000)

    def test_negative_line_rejected(self):
        # a negative line made room for an over-budget stage-1 model
        for name in ("program_bytes", "tables_bytes", "buffer_bytes", "model_budget_bytes"):
            with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
                MemoryBudget(**{name: -1})
            MemoryBudget(**{name: 0})

    def test_small_model_passes_stage1(self, frontend_config):
        model = make_tone_acoustic_model(frontend_config, 3)
        report = enforce_budget(MemoryBudget(), model)
        assert report.ok and report.overage_bytes == 0
        assert model.byte_size < 13312

    def test_14000_byte_model_rejected_with_overage(self, frontend_config):
        model = pad_model_to_size(make_tone_acoustic_model(frontend_config, 3), 14000)
        with pytest.raises(BudgetViolationError) as err:
            enforce_budget(MemoryBudget(), model)
        assert err.value.report.overage_bytes == 14000 - 13312 == 688
        labels = [name for name, _ in err.value.report.lines()]
        assert {"program", "tables", "audio_buffer", "model_budget"} <= set(labels)

    def test_stage2_model_exempt(self, frontend_config, tone_stage1_model):
        from kwscascade.encoder import Activation, EncoderLayer, EncoderModel
        from kwscascade.quantize import QuantParams, compute_quant_params, quantize, quantize_bias

        rng = np.random.default_rng(17)
        in_params = QuantParams(-30.0, 30.0)
        hidden = rng.normal(size=(1000, 32))
        out = rng.normal(size=(4, 1000))
        hp, op = compute_quant_params(hidden), compute_quant_params(out)
        layers = [
            EncoderLayer(quantize(hidden, hp),
                         quantize_bias(np.zeros(1000), hp.scale * in_params.scale),
                         in_params, Activation.RELU),
            EncoderLayer(quantize(out, op),
                         quantize_bias(np.zeros(4), op.scale * QuantParams(0.0, 40.0).scale),
                         QuantParams(0.0, 40.0), Activation.SOFTMAX),
        ]
        model = EncoderModel(layers, 32, 1, 3)
        assert model.byte_size > 2 * 13312
        Cascade(make_cascade_config(frontend_config), tone_stage1_model, model)

    def test_boundary_sizes(self, frontend_config):
        at_limit = pad_model_to_size(make_tone_acoustic_model(frontend_config, 3), 13312)
        assert enforce_budget(MemoryBudget(), at_limit).ok
        over = pad_model_to_size(make_tone_acoustic_model(frontend_config, 3), 13313)
        with pytest.raises(BudgetViolationError):
            enforce_budget(MemoryBudget(), over)


class TestCascadeConfig:
    def test_negative_windows_rejected(self):
        for field_name in ("stage2_window_ms", "refractory_ms"):
            with pytest.raises(ConfigError, match=field_name):
                CascadeConfig(**{field_name: -1})
            CascadeConfig(**{field_name: 0})

    @pytest.mark.parametrize("buffer_bytes", [2, 3, 64000, 79872])
    def test_ring_is_the_budget_audio_line(self, frontend_config, tone_stage1_model,
                                           tone_stage2_model, buffer_bytes):
        config = CascadeConfig(frontend=frontend_config,
                               budget=MemoryBudget(buffer_bytes=buffer_bytes))
        cascade = Cascade(config, tone_stage1_model, tone_stage2_model)
        assert cascade._ring.capacity_samples == buffer_bytes // 2

    @pytest.mark.parametrize("buffer_bytes", [0, 1])
    def test_audio_line_under_one_sample_rejected(self, buffer_bytes):
        with pytest.raises(ConfigError, match="buffer_bytes"):
            CascadeConfig(budget=MemoryBudget(buffer_bytes=buffer_bytes))


class TestCascade:
    def test_silence_produces_no_events(self, frontend_config, tone_stage1_model,
                                         tone_stage2_model):
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for _ in range(20):
            events.extend(cascade.push_audio(np.zeros(3200, dtype=np.int16)))
        assert events == []
        assert cascade.stats == CascadeStats(samples=64000, stage2_samples=0, triggers=0)

    def test_single_keyword_trigger_and_accept(self, frontend_config, tone_stage1_model,
                                               tone_stage2_model, keyword_audio):
        samples, end_ms = keyword_audio
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(samples), 1600):
            events.extend(cascade.push_audio(samples[start : start + 1600]))
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.STAGE1_TRIGGER, EventKind.STAGE2_ACCEPT]
        trigger, accept = events
        assert abs(trigger.timestamp_ms - end_ms) <= 250
        assert accept.alignment_ms is not None and len(accept.alignment_ms) == 3
        assert accept.timestamp_ms <= trigger.timestamp_ms + 1000
        assert cascade.stats.triggers == 1
        assert cascade.finish() == []  # no stage-2 job left running

    def test_unreachable_threshold_mutes(self, frontend_config, tone_stage1_model,
                                         tone_stage2_model, keyword_audio):
        samples, _ = keyword_audio
        cascade = Cascade(make_cascade_config(frontend_config, threshold1=1.01),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(samples), 1600):
            events.extend(cascade.push_audio(samples[start : start + 1600]))
        assert events == []

    def test_stage2_reject_when_stage2_muted(self, frontend_config, tone_stage1_model,
                                             tone_stage2_model, keyword_audio):
        samples, _ = keyword_audio
        cascade = Cascade(make_cascade_config(frontend_config, threshold2=1.01),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(samples), 1600):
            events.extend(cascade.push_audio(samples[start : start + 1600]))
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.STAGE1_TRIGGER, EventKind.STAGE2_REJECT]
        trigger, reject = events
        # the deadline is one stage-2 window of audio after the trigger
        assert reject.timestamp_ms == trigger.timestamp_ms + cascade.config.stage2_window_ms

    def test_zero_stage2_window_rejects_at_trigger(self, frontend_config, tone_stage1_model,
                                                   tone_stage2_model, keyword_audio):
        samples, _ = keyword_audio
        config = make_cascade_config(frontend_config, threshold2=1.01)
        config.stage2_window_ms = 0
        cascade = Cascade(config, tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(samples), 1600):
            events.extend(cascade.push_audio(samples[start : start + 1600]))
        kinds = [e.kind for e in events]
        assert kinds[:2] == [EventKind.STAGE1_TRIGGER, EventKind.STAGE2_REJECT]
        assert events[1].timestamp_ms == events[0].timestamp_ms

    def test_stage2_frames_stay_on_stage1_grid(self, frontend_config, tone_stage1_model,
                                               tone_stage2_model):
        # past 2 s the ring is full, and a snapshot ending at the trigger
        # frame would start half a hop off stage 1's frame grid
        rng = np.random.default_rng(4)
        kw, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150)
        audio = np.concatenate([synth_noise(40000, rng), kw])
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(audio), 2560):
            events.extend(cascade.push_audio(audio[start : start + 2560]))
        (accept,) = [e for e in events if e.kind is EventKind.STAGE2_ACCEPT]
        stamps = [accept.timestamp_ms, *accept.alignment_ms, events[0].timestamp_ms]
        assert stamps[0] > 2000
        assert all((ms - frontend_config.frame_length_ms) % frontend_config.hop_ms == 0
                   for ms in stamps)

    def test_finish_decides_a_running_job(self, frontend_config, tone_stage1_model,
                                          tone_stage2_model):
        # a keyword with 200 ms of trailing silence ends the stream before
        # the stage-2 deadline; stage 2 never accepts
        samples, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150,
                                         trail_silence_ms=200)
        cascade = Cascade(make_cascade_config(frontend_config, threshold2=1.01),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(samples), 1600):
            events.extend(cascade.push_audio(samples[start : start + 1600]))
        assert [e.kind for e in events] == [EventKind.STAGE1_TRIGGER]
        (reject,) = cascade.finish()
        assert reject.kind is EventKind.STAGE2_REJECT
        assert reject.timestamp_ms == round(len(samples) * 1000 / 16000)
        assert reject.stage1_score == events[0].stage1_score
        assert cascade.finish() == []

    def test_stats_count_the_triggers(self, frontend_config, tone_stage1_model,
                                      tone_stage2_model, keyword_audio):
        samples, _ = keyword_audio
        rng = np.random.default_rng(8)
        kw2, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150)
        audio = np.concatenate([samples, synth_noise(32000, rng), kw2,
                                synth_noise(24000, rng)])
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(audio), 1600):
            events.extend(cascade.push_audio(audio[start : start + 1600]))
        triggers = [e for e in events if e.kind is EventKind.STAGE1_TRIGGER]
        accepts = [e for e in events if e.kind is EventKind.STAGE2_ACCEPT]
        assert cascade.stats.triggers == len(triggers) == 2
        assert len(accepts) == 2

    def test_stage1_keeps_processing_during_stage2(self, frontend_config,
                                                   tone_stage1_model, tone_stage2_model):
        # second keyword arriving right after the refractory is still caught,
        # so stage-1 ingestion never stalled on stage-2 work
        rng = np.random.default_rng(9)
        kw, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150,
                                    lead_silence_ms=100, trail_silence_ms=100)
        audio = np.concatenate([kw, synth_noise(20800, rng), kw, synth_noise(24000, rng)])
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(audio), 800):
            events.extend(cascade.push_audio(audio[start : start + 800]))
        assert [e.kind for e in events].count(EventKind.STAGE1_TRIGGER) == 2
        assert cascade.stats.triggers == 2

    def test_one_accept_per_keyword(self, frontend_config, tone_stage1_model,
                                    tone_stage2_model):
        # keywords 1.75 s apart: the second trigger comes after the first
        # accept's refractory, and its 2 s snapshot reaches back into the
        # first keyword, which stage 2 must not accept again
        rng = np.random.default_rng(8)
        kw, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150)
        audio = np.concatenate([synth_noise(8000, rng), kw, synth_noise(8000, rng), kw,
                                synth_noise(24000, rng)])
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(audio), 1600):
            events.extend(cascade.push_audio(audio[start : start + 1600]))
        triggers = [e for e in events if e.kind is EventKind.STAGE1_TRIGGER]
        accepts = [e for e in events if e.kind is EventKind.STAGE2_ACCEPT]
        assert len(triggers) == len(accepts) == 2
        assert triggers[1].timestamp_ms > accepts[0].timestamp_ms + 1000
        assert triggers[1].timestamp_ms - accepts[0].alignment_ms[0] < 2000
        for trigger, accept in zip(triggers, accepts):
            assert abs(accept.timestamp_ms - trigger.timestamp_ms) <= 250
        assert accepts[1].alignment_ms[0] > accepts[0].alignment_ms[-1]

    @pytest.mark.parametrize("lead_samples, chunk", [(8000, 1600), (40000, 2560)])
    def test_stats_count_the_audio_each_stage_ran(self, frontend_config, tone_stage1_model,
                                                  tone_stage2_model, lead_samples, chunk):
        rng = np.random.default_rng(5)
        kw, _ = synth_keyword_audio(frontend_config, 3, unit_ms=150)
        audio = np.concatenate([synth_noise(lead_samples, rng), kw, synth_noise(24000, rng)])
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(audio), chunk):
            events.extend(cascade.push_audio(audio[start : start + chunk]))
        trigger, accept = events
        assert accept.kind is EventKind.STAGE2_ACCEPT
        trigger_sample, accept_sample = trigger.timestamp_ms * 16, accept.timestamp_ms * 16
        # the snapshot is the 2 s ring up to the trigger, its start moved up
        # to stage 1's 160-sample frame grid; the stream runs on to the accept
        hop = frontend_config.hop_samples
        snapshot_start = -(-max(0, trigger_sample - 32000) // hop) * hop
        snapshot = trigger_sample - snapshot_start
        streamed = accept_sample - trigger_sample
        assert cascade.stats == CascadeStats(len(audio), snapshot + streamed, 1)

    @pytest.mark.parametrize("role", ["stage-1", "stage-2", "speaker"])
    def test_model_channels_checked_at_build(self, frontend_config, tone_stage1_model,
                                             tone_stage2_model, embedding_model, role):
        narrow = k.FrontendConfig(num_channels=16)
        models = {"stage-1": tone_stage1_model, "stage-2": tone_stage2_model,
                  "speaker": embedding_model}
        models[role] = (make_random_embedding_model(narrow, dim=64) if role == "speaker"
                        else make_tone_acoustic_model(narrow, 3))
        profile = speaker.enroll([speaker.SpeakerSignature(np.ones(64))], threshold=0.8)
        with pytest.raises(DimensionError,
                           match=f"frontend.num_channels 32 != {role} model num_channels 16"):
            Cascade(make_cascade_config(frontend_config), models["stage-1"],
                    models["stage-2"], models["speaker"], profile)

    def test_detector_rejects_an_embedding_model(self, frontend_config, embedding_model):
        with pytest.raises(DimensionError, match="the detector model is not an acoustic model"):
            DetectorStream(frontend_config, embedding_model, DecoderConfig(3))

    def test_no_accept_without_trigger(self, frontend_config, tone_stage1_model,
                                       tone_stage2_model, keyword_audio):
        samples, _ = keyword_audio
        cascade = Cascade(make_cascade_config(frontend_config),
                          tone_stage1_model, tone_stage2_model)
        events = []
        for start in range(0, len(samples), 1600):
            events.extend(cascade.push_audio(samples[start : start + 1600]))
        seen_trigger = False
        for event in events:
            if event.kind is EventKind.STAGE1_TRIGGER:
                seen_trigger = True
            if event.kind is EventKind.STAGE2_ACCEPT:
                assert seen_trigger

    def test_full_dsp_emulation_path(self, keyword_audio):
        # stage-1 exactly as it would run on the DSP: fixed-point frontend
        # feeding FixedAccum inference, twice, byte-identical events
        samples, end_ms = keyword_audio
        fixed_frontend = k.FrontendConfig(arithmetic_mode=k.ArithmeticMode.FIXED_POINT)
        stage1 = make_tone_acoustic_model(fixed_frontend, 3)
        stage2 = make_tone_acoustic_model(fixed_frontend, 3, stacked_frames=2)
        logs = []
        for _ in range(2):
            cascade = Cascade(make_cascade_config(fixed_frontend),
                              stage1, stage2)
            events = []
            for start in range(0, len(samples), 1600):
                events.extend(cascade.push_audio(samples[start : start + 1600]))
            logs.append([(e.kind, e.timestamp_ms, e.stage1_score, e.stage2_score)
                         for e in events])
        assert logs[0] == logs[1]
        kinds = [kind for kind, _, _, _ in logs[0]]
        assert kinds == [EventKind.STAGE1_TRIGGER, EventKind.STAGE2_ACCEPT]
        assert abs(logs[0][0][1] - end_ms) <= 250

    def test_models_required(self, frontend_config, tone_stage1_model):
        with pytest.raises(LifecycleError):
            Cascade(make_cascade_config(frontend_config), tone_stage1_model, None)

    @pytest.mark.parametrize("half", ["speaker_model", "speaker_profile"])
    def test_half_a_speaker_check_rejected(self, frontend_config, tone_stage1_model,
                                           tone_stage2_model, embedding_model, half):
        # either half alone would silently run no speaker check
        profile = speaker.enroll([speaker.SpeakerSignature(np.ones(64))])
        given = {"speaker_model": embedding_model, "speaker_profile": profile}
        with pytest.raises(LifecycleError, match="speaker model and a profile"):
            Cascade(make_cascade_config(frontend_config), tone_stage1_model,
                    tone_stage2_model, **{half: given[half]})

    def test_oversized_stage1_model_rejected_at_load(self, frontend_config,
                                                     tone_stage2_model):
        big = pad_model_to_size(make_tone_acoustic_model(frontend_config, 3), 13313)
        with pytest.raises(BudgetViolationError):
            Cascade(make_cascade_config(frontend_config), big, tone_stage2_model)


def relu_embedding_model(frontend_config, stacked, weight, bias, dim=8):
    """A one-layer ReLU embedding model: weights from ``weight`` to about twice it,
    every bias ``bias``."""
    in_dim = frontend_config.num_channels * stacked
    weights = np.tile(weight * (1 + np.arange(in_dim) / in_dim), (dim, 1))
    layer = quantize_layer(weights, np.full(dim, bias),
                           QuantParams(-30.0, 30.0), Activation.RELU)
    return EncoderModel([layer], frontend_config.num_channels, stacked, dim,
                        ModelKind.EMBEDDING)


class TestSpeakerIntegration:
    def _run(self, frontend_config, stage1, stage2, embedding, profile, audio, units=3):
        cascade = Cascade(make_cascade_config(frontend_config, units=units), stage1, stage2,
                          speaker_model=embedding, speaker_profile=profile)
        events = []
        for start in range(0, len(audio), 1600):
            events.extend(cascade.push_audio(audio[start : start + 1600]))
        return cascade, events

    def test_enrolled_speaker_accepted(self, frontend_config, tone_stage1_model,
                                       tone_stage2_model, embedding_model, keyword_audio):
        samples, _ = keyword_audio
        # enroll on the segment the cascade's speaker check embeds: cosine 1
        det = DetectorStream(frontend_config, tone_stage2_model,
                             make_cascade_config(frontend_config).stage2_decoder,
                             AccumMode.FLOAT, keep_features=True)
        _, _, segment = stage2_pass(det, samples)
        profile = speaker.enroll([speaker.embed(segment, embedding_model)], threshold=0.8)
        _, events = self._run(frontend_config, tone_stage1_model, tone_stage2_model,
                              embedding_model, profile, samples)
        kinds = [e.kind for e in events]
        assert EventKind.SPEAKER_ACCEPT in kinds
        assert EventKind.SPEAKER_REJECT not in kinds
        assert events[-1].speaker_score == pytest.approx(1.0, abs=1e-6)

    def test_stage2_pass_stops_at_the_accepting_block(self, frontend_config,
                                                       tone_stage2_model, keyword_audio):
        # 6 s whose keyword is in the first block: the pass returns what a
        # whole-file push finds, and pushes nothing past that block
        samples = np.concatenate([keyword_audio[0],
                                  synth_noise(6 * SAMPLE_RATE_HZ - len(keyword_audio[0]),
                                              np.random.default_rng(3))])
        decoder = make_cascade_config(frontend_config).stage2_decoder

        def detector():
            return DetectorStream(frontend_config, tone_stage2_model, decoder,
                                  AccumMode.FLOAT, keep_features=True)
        whole = detector()
        frame, hyp = next((f, h) for f, h in whole.push(samples) if h.score >= decoder.threshold)
        segment = whole.features[hyp.alignment[0] : hyp.alignment[-1] + 1]
        blocked = detector()
        got_frame, got_hyp, got_segment = stage2_pass(blocked, samples)
        assert (got_frame, got_hyp.score, got_hyp.alignment) == (frame, hyp.score,
                                                                 hyp.alignment)
        assert [f.frame_index for f in got_segment] == [f.frame_index for f in segment]
        assert (np.stack([f.channels for f in got_segment]).tobytes()
                == np.stack([f.channels for f in segment]).tobytes())
        assert len(blocked.features) == num_frames_for(BLOCK_SAMPLES, frontend_config)

    def test_impostor_rejected(self, frontend_config, tone_stage1_model,
                               tone_stage2_model, embedding_model, keyword_audio):
        samples, _ = keyword_audio
        rng = np.random.default_rng(13)
        stranger = speaker.SpeakerSignature(rng.normal(size=64))
        profile = speaker.enroll([stranger], threshold=0.8)
        _, events = self._run(frontend_config, tone_stage1_model, tone_stage2_model,
                              embedding_model, profile, samples)
        kinds = [e.kind for e in events]
        # the speaker check runs on the stage-2 accept, stamped with it
        assert kinds == [EventKind.STAGE1_TRIGGER, EventKind.STAGE2_ACCEPT,
                         EventKind.SPEAKER_REJECT]
        assert events[2].timestamp_ms == events[1].timestamp_ms

    def _assert_unscorable_rejected(self, cascade, events):
        # the push's trigger and accept are kept, the check is a reject with no
        # score at the accept's stamp, and the job is decided
        assert [e.kind for e in events] == [EventKind.STAGE1_TRIGGER, EventKind.STAGE2_ACCEPT,
                                            EventKind.SPEAKER_REJECT]
        assert events[2].to_dict() == {"event": "speaker_reject",
                                       "timestamp_ms": events[1].timestamp_ms}
        assert cascade.finish() == []

    def test_segment_shorter_than_the_speaker_stack_is_rejected(self, frontend_config):
        # a 1-unit keyword aligns to one frame, and the speaker model stacks 2:
        # the check raised EmptySegmentError out of push_audio
        stage1 = make_tone_acoustic_model(frontend_config, 1)
        stage2 = make_tone_acoustic_model(frontend_config, 1, stacked_frames=2)
        embedding = relu_embedding_model(frontend_config, 2, 0.01, 0.5)
        profile = speaker.enroll([speaker.SpeakerSignature(np.ones(8))])
        samples, _ = synth_keyword_audio(frontend_config, 1)
        cascade, events = self._run(frontend_config, stage1, stage2, embedding, profile,
                                    samples, units=1)
        self._assert_unscorable_rejected(cascade, events)

    def test_zero_embedding_is_rejected(self, frontend_config, tone_stage1_model,
                                        tone_stage2_model, keyword_audio):
        # a final ReLU that outputs only zeros: cosine_similarity raised ValueError
        # out of push_audio
        embedding = relu_embedding_model(frontend_config, 1, -0.01, -100.0)
        profile = speaker.enroll([speaker.SpeakerSignature(np.ones(8))])
        cascade, events = self._run(frontend_config, tone_stage1_model, tone_stage2_model,
                                    embedding, profile, keyword_audio[0])
        self._assert_unscorable_rejected(cascade, events)


def _clock_clip():
    """Two keywords 0.5 s apart in quiet noise, the stream ending 0.2 s after the second."""
    rng = np.random.default_rng(21)
    kw, _ = synth_keyword_audio(k.FrontendConfig(), 3, unit_ms=150,
                                lead_silence_ms=100, trail_silence_ms=100)
    return np.concatenate([synth_noise(3200, rng), kw, synth_noise(4800, rng), kw,
                           synth_noise(1600, rng)])


_CLOCK_CLIP = _clock_clip()


@functools.lru_cache(maxsize=None)
def _clock_cascade_parts(tracker, mode=k.ArithmeticMode.FIXED_POINT):
    frontend = k.FrontendConfig(arithmetic_mode=mode, noise_suppression_enabled=tracker)
    embedding = make_random_embedding_model(frontend, dim=64)
    stranger = speaker.SpeakerSignature(np.random.default_rng(13).normal(size=64))
    return (frontend, make_tone_acoustic_model(frontend, 3),
            make_tone_acoustic_model(frontend, 3, stacked_frames=2), embedding,
            speaker.enroll([stranger], threshold=0.8))


def _clock_events(tracker, muted, with_speaker, bounds, mode=k.ArithmeticMode.FIXED_POINT):
    """Events of the whole clip pushed in pieces, finish() included, and the stats."""
    frontend, stage1, stage2, embedding, profile = _clock_cascade_parts(tracker, mode)
    # muted: stage 2 never accepts, so short windows give deadline rejects,
    # re-triggers once the refractory ends, and a job running at the end
    windows = dict(stage2_window_ms=300, refractory_ms=200) if muted else {}
    config = make_cascade_config(frontend, threshold2=1.01 if muted else 0.4, **windows)
    cascade = Cascade(config, stage1, stage2, *((embedding, profile) if with_speaker else ()))
    events = []
    for lo, hi in bounds:
        events.extend(cascade.push_audio(_CLOCK_CLIP[lo:hi]))
    return events + cascade.finish(), cascade.stats


@functools.lru_cache(maxsize=None)
def _clock_reference(tracker, muted, with_speaker, mode=k.ArithmeticMode.FIXED_POINT):
    n = len(_CLOCK_CLIP)
    return _clock_events(tracker, muted, with_speaker,
                         [(lo, min(lo + 2560, n)) for lo in range(0, n, 2560)], mode)


@st.composite
def clip_bounds(draw, n):
    """(start, stop) pieces covering range(n) at random cuts."""
    edges = [0, *sorted(draw(st.sets(st.integers(1, n - 1), max_size=30))), n]
    return list(zip(edges[:-1], edges[1:]))


_ONE_SAMPLE_EACH = [(i, i + 1) for i in range(len(_CLOCK_CLIP))]
_WHOLE_CLIP = [(0, len(_CLOCK_CLIP))]


class TestSampleClock:
    """Every decision is a function of the sample clock, not of the chunking."""

    def test_clip_exercises_every_decision_path(self):
        # an accept from the stream after its trigger, one from the snapshot
        # before it, deadline rejects, and a job that finish() decides
        events, _ = _clock_reference(False, False, True)
        pairs = [(a.timestamp_ms, b.timestamp_ms) for a, b in zip(events, events[1:])
                 if (a.kind, b.kind) == (EventKind.STAGE1_TRIGGER, EventKind.STAGE2_ACCEPT)]
        assert len(pairs) == 2 and pairs[0][1] > pairs[0][0] and pairs[1][1] < pairs[1][0]
        assert EventKind.SPEAKER_REJECT in [e.kind for e in events]
        muted, _ = _clock_reference(False, True, False)
        rejects = [e.timestamp_ms for e in muted if e.kind is EventKind.STAGE2_REJECT]
        triggers = [e.timestamp_ms for e in muted if e.kind is EventKind.STAGE1_TRIGGER]
        assert len(rejects) == len(triggers) >= 3
        assert rejects[:-1] == [t + 300 for t in triggers[:-1]]
        assert rejects[-1] == round(len(_CLOCK_CLIP) * 1000 / 16000) < triggers[-1] + 300

    @pytest.mark.parametrize("mode", [k.ArithmeticMode.FIXED_POINT, k.ArithmeticMode.FLOAT])
    @pytest.mark.parametrize("tracker", [False, True])
    @settings(max_examples=5, deadline=None)
    @given(bounds=clip_bounds(len(_CLOCK_CLIP)), muted=st.booleans(),
           with_speaker=st.booleans())
    @example(bounds=_ONE_SAMPLE_EACH, muted=False, with_speaker=True)
    @example(bounds=_ONE_SAMPLE_EACH, muted=True, with_speaker=False)
    @example(bounds=_WHOLE_CLIP, muted=False, with_speaker=False)
    @example(bounds=_WHOLE_CLIP, muted=True, with_speaker=True)
    def test_any_chunking_gives_the_same_events(self, mode, tracker, bounds, muted,
                                                with_speaker):
        events, stats = _clock_events(tracker, muted, with_speaker, bounds, mode)
        reference, reference_stats = _clock_reference(tracker, muted, with_speaker, mode)
        assert [e.to_dict() for e in events] == [e.to_dict() for e in reference]
        assert events == reference
        assert stats == reference_stats
        assert stats.samples == len(_CLOCK_CLIP)
        assert stats.triggers == [e.kind for e in events].count(EventKind.STAGE1_TRIGGER)
