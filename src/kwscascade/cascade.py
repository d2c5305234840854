"""Two-stage cascade: ring-buffered stage-1 detection gating a stage-2 pass.

Stage 1 runs continuously over streamed PCM. On trigger it snapshots the
audio ring buffer up to the trigger frame, hands the snapshot plus the
following stream to a fresh stage-2 detector, and waits for that detector
to accept or give up (one second of audio after the trigger by default).
An optional speaker check runs on the stage-2 alignment segment.

The two stages interleave cooperatively inside push_audio: each push does
this chunk's worth of stage-2 work first, then stage-1's, so stage-1 never
stalls on stage-2. Every decision is a pure function of the sample clock,
whatever the chunking. The one exception to the per-chunk work bound is
the trigger push itself, which runs stage-2 over the (<= 2 s) snapshot.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decoder import DecoderConfig, StreamingDecoder
from .encoder import ModelKind, forward_vector, stack_frames
from .frontend import SAMPLE_RATE_HZ, AudioChunk, ConfigError, FrontendConfig, FrontendStream
from .quantize import AccumMode, DimensionError
from . import speaker as speaker_mod


class LifecycleError(RuntimeError):
    """Cascade used before both models were loaded."""


class BudgetViolationError(ValueError):
    """Stage-1 model does not fit its memory budget line."""

    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class MemoryBudget:
    """DSP memory partition; all lines must fit in total_bytes."""

    total_bytes: int = 131072
    program_bytes: int = 25600
    tables_bytes: int = 12288
    buffer_bytes: int = 64000
    model_budget_bytes: int = 13312

    def __post_init__(self):
        used = self.program_bytes + self.tables_bytes + self.buffer_bytes + self.model_budget_bytes
        if used > self.total_bytes:
            raise ValueError(
                f"budget lines sum to {used} bytes, over the {self.total_bytes}-byte total"
            )


@dataclass
class BudgetReport:
    stage: int
    model_bytes: int
    budget: MemoryBudget
    ok: bool
    overage_bytes: int
    notes: str = ""

    def lines(self):
        b = self.budget
        return [
            ("program", b.program_bytes),
            ("tables", b.tables_bytes),
            ("audio_buffer", b.buffer_bytes),
            ("model_budget", b.model_budget_bytes),
            ("model_actual", self.model_bytes),
            ("total", b.total_bytes),
        ]

    def summary(self):
        head = f"stage-{self.stage} model {self.model_bytes} bytes: " + (
            "ok" if self.ok else f"over budget by {self.overage_bytes} bytes"
        )
        detail = ", ".join(f"{name}={size}" for name, size in self.lines())
        return f"{head} ({detail})" + (f"; {self.notes}" if self.notes else "")


def enforce_budget(budget, model, stage):
    """Check a model against the budget; hard error for stage-1 overruns.

    Stage-2 models run on the AP and are exempt from the model line, but
    still get an informational report.
    """
    size = model.byte_size
    overage = max(0, size - budget.model_budget_bytes)
    if stage == 1:
        report = BudgetReport(stage, size, budget, overage == 0, overage)
        if not report.ok:
            raise BudgetViolationError(report)
        return report
    notes = "stage-2 runs on the AP; model budget line not enforced" if overage else ""
    return BudgetReport(stage, size, budget, True, 0, notes)


class RingBuffer:
    """Circular int16 sample store sized for the keyword (2 s by default)."""

    def __init__(self, capacity_samples=32000):
        if capacity_samples < 1:
            raise ValueError("capacity must be positive")
        self.capacity_samples = capacity_samples
        self._storage = np.zeros(capacity_samples, dtype=np.int16)
        self._write_index = 0
        self.total_written = 0

    def write(self, samples):
        samples = np.asarray(samples, dtype=np.int16)
        n = len(samples)
        if n >= self.capacity_samples:
            self._storage[:] = samples[n - self.capacity_samples :]
            self._write_index = 0
        else:
            end = self._write_index + n
            if end <= self.capacity_samples:
                self._storage[self._write_index : end] = samples
            else:
                split = self.capacity_samples - self._write_index
                self._storage[self._write_index :] = samples[:split]
                self._storage[: end - self.capacity_samples] = samples[split:]
            self._write_index = end % self.capacity_samples
        self.total_written += n

    def snapshot(self):
        """Most recent min(capacity, total_written) samples, oldest first.

        A plain copy: the buffer keeps accepting writes independently.
        """
        have = min(self.capacity_samples, self.total_written)
        if have < self.capacity_samples:
            return self._storage[:have].copy()
        return np.concatenate(
            [self._storage[self._write_index :], self._storage[: self._write_index]]
        )


class DetectorStream:
    """Frontend + encoder + decoder chained over streaming PCM."""

    def __init__(self, frontend_config, model, decoder_config,
                 mode=AccumMode.FIXED, keep_features=False):
        if model.kind is not ModelKind.ACOUSTIC:
            raise LifecycleError("detector needs an acoustic model")
        self._frontend = FrontendStream(frontend_config)
        self._model = model
        self._decoder = StreamingDecoder(decoder_config,
                                         first_frame_index=model.num_stacked_frames - 1)
        self._mode = mode
        # the last num_stacked_frames - 1 feature rows, the next stack's history
        self._tail = np.zeros((0, frontend_config.num_channels))
        self.features = [] if keep_features else None

    @property
    def frontend_config(self):
        return self._frontend.config

    @property
    def decoder_config(self):
        return self._decoder.config

    def push(self, samples):
        """Feed PCM; return [(feature_frame_index, KeywordHypothesis)]."""
        frames = self._frontend.push(samples)
        if not frames:
            return []
        if self.features is not None:
            self.features.extend(frames)
        rows = np.concatenate((self._tail, [f.channels for f in frames]))
        self._tail = rows[max(0, len(rows) - self._model.num_stacked_frames + 1) :].copy()
        stacked = stack_frames(rows, self._model.num_stacked_frames)
        probs = forward_vector(self._model, stacked, self._mode)
        return self._decoder.push_many(probs[:, : self._model.num_units])


class CascadePhase(Enum):
    LISTENING = "listening"
    STAGE2_RUNNING = "stage2_running"
    AWAITING_VERIFICATION = "awaiting_verification"


class EventKind(Enum):
    STAGE1_TRIGGER = "stage1_trigger"
    STAGE2_ACCEPT = "stage2_accept"
    STAGE2_REJECT = "stage2_reject"
    SPEAKER_ACCEPT = "speaker_accept"
    SPEAKER_REJECT = "speaker_reject"


@dataclass
class CascadeEvent:
    kind: EventKind
    timestamp_ms: int
    stage1_score: float = None
    stage2_score: float = None
    speaker_score: float = None
    alignment_ms: tuple = None

    def to_dict(self):
        out = {"event": self.kind.value, "timestamp_ms": self.timestamp_ms}
        if self.stage1_score is not None:
            out["stage1_score"] = round(self.stage1_score, 6)
        if self.stage2_score is not None:
            out["stage2_score"] = round(self.stage2_score, 6)
        if self.speaker_score is not None:
            out["speaker_score"] = round(self.speaker_score, 6)
        if self.alignment_ms is not None:
            out["alignment_ms"] = list(self.alignment_ms)
        return out


@dataclass
class CascadeConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    stage1_decoder: DecoderConfig = field(default_factory=lambda: DecoderConfig(num_units=3))
    stage2_decoder: DecoderConfig = field(default_factory=lambda: DecoderConfig(num_units=3))
    budget: MemoryBudget = field(default_factory=MemoryBudget)
    buffer_capacity_samples: int = 32000
    stage2_window_ms: int = 1000
    refractory_ms: int = 1000
    stage1_mode: AccumMode = AccumMode.FIXED
    stage2_mode: AccumMode = AccumMode.FLOAT

    def __post_init__(self):
        for name in ("stage2_window_ms", "refractory_ms"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


class _Stage2Job:
    def __init__(self, detector, base_sample, trigger_sample, deadline_sample, trigger_score):
        self.detector = detector
        self.base_sample = base_sample  # absolute sample index of snapshot start
        self.trigger_sample = trigger_sample
        self.deadline_sample = deadline_sample
        self.trigger_score = trigger_score


class Cascade:
    """The two-stage orchestrator; see module docstring for the protocol."""

    def __init__(self, config, stage1_model, stage2_model,
                 speaker_model=None, speaker_profile=None):
        if stage1_model is None or stage2_model is None:
            raise LifecycleError("both stage models must be loaded")
        self.config = config
        self.stage1_report = enforce_budget(config.budget, stage1_model, stage=1)
        self.stage2_report = enforce_budget(config.budget, stage2_model, stage=2)
        if speaker_model is not None and speaker_model.kind is not ModelKind.EMBEDDING:
            raise DimensionError("the speaker model is not an embedding model")
        if speaker_model is not None and speaker_profile is not None:
            dim = len(speaker_profile.signature.vector)
            if dim != speaker_model.num_units:
                raise DimensionError(f"profile dim {dim} != speaker model "
                                     f"num_units {speaker_model.num_units}")
        self._stage1_model = stage1_model
        self._stage2_model = stage2_model
        self._speaker_model = speaker_model
        self._speaker_profile = speaker_profile
        self._ring = RingBuffer(config.buffer_capacity_samples)
        self._stage1 = self._new_detector(stage1_model, config.stage1_decoder,
                                          config.stage1_mode)
        self._stage2_job = None
        self._phase = CascadePhase.LISTENING
        self._suppress_until_sample = 0
        self.wake_count = 0
        self.state_history = [CascadePhase.LISTENING]

    def _new_detector(self, model, decoder_config, mode, keep_features=False):
        # Stages may share frontend settings but never a frontend instance.
        return DetectorStream(self.config.frontend, model, decoder_config,
                              mode, keep_features=keep_features)

    @property
    def phase(self):
        return self._phase

    def _set_phase(self, phase):
        if phase is not self._phase:
            self._phase = phase
            self.state_history.append(phase)

    def _frame_end_sample(self, frame_index):
        cfg = self.config.frontend
        return frame_index * cfg.hop_samples + cfg.frame_samples

    def _frame_end_ms(self, frame_index, base_sample=0):
        return round(
            (base_sample + self._frame_end_sample(frame_index)) * 1000 / SAMPLE_RATE_HZ
        )

    def push_audio(self, chunk):
        """Append a chunk, run both stages cooperatively, return new events."""
        samples = chunk.samples if isinstance(chunk, AudioChunk) else np.asarray(chunk, dtype=np.int16)
        first = self._ring.total_written  # absolute sample index of samples[0]
        events = []
        # stage-2 first, so its (earlier) decisions gate this chunk's triggers;
        # a job still running after the whole chunk gates all of them
        if self._stage2_job is not None:
            events.extend(self._feed_stage2(samples, first))
        cut = 0  # samples[:cut] are in the ring
        for frame_index, hyp in self._stage1.push(samples):
            trigger = self._frame_end_sample(frame_index)
            if (not hyp.score >= self.config.stage1_decoder.threshold
                    or self._phase is not CascadePhase.LISTENING
                    or trigger < self._suppress_until_sample):
                continue
            self._ring.write(samples[cut : trigger - first])
            cut = trigger - first
            ts = self._frame_end_ms(frame_index)
            events.append(CascadeEvent(EventKind.STAGE1_TRIGGER, ts, stage1_score=hyp.score))
            self.wake_count += 1
            self._set_phase(CascadePhase.STAGE2_RUNNING)
            # the snapshot ends at the trigger frame and starts on stage 1's frame grid
            snap = self._ring.snapshot()
            snap = snap[(len(snap) - trigger) % self.config.frontend.hop_samples :]
            detector = self._new_detector(
                self._stage2_model, self.config.stage2_decoder, self.config.stage2_mode,
                keep_features=True,
            )
            self._stage2_job = _Stage2Job(
                detector,
                base_sample=trigger - len(snap),
                trigger_sample=trigger,
                deadline_sample=trigger + self.config.stage2_window_ms * SAMPLE_RATE_HZ // 1000,
                trigger_score=hyp.score,
            )
            events.extend(self._feed_stage2(snap, trigger - len(snap)))
            if self._stage2_job is not None:
                events.extend(self._feed_stage2(samples[cut:], trigger))
        self._ring.write(samples[cut:])
        return events

    def finish(self):
        """End of stream: decide a running stage-2 job as a reject at the last sample."""
        if self._stage2_job is None:
            return []
        self._stage2_job.deadline_sample = self._ring.total_written
        return self._conclude_stage2(accepted=False)

    def _feed_stage2(self, samples, first_sample):
        """Run the job over samples starting at absolute first_sample, up to its deadline."""
        job = self._stage2_job
        samples = samples[: job.deadline_sample - first_sample]
        for frame_index, hyp in job.detector.push(samples):
            if hyp.score >= job.detector.decoder_config.threshold:
                return self._conclude_stage2(accepted=True, hyp=hyp, frame=frame_index)
        if first_sample + len(samples) >= job.deadline_sample:
            return self._conclude_stage2(accepted=False)
        return []

    def _conclude_stage2(self, accepted, hyp=None, frame=None):
        job = self._stage2_job
        events = []
        if accepted:
            ts = self._frame_end_ms(frame, base_sample=job.base_sample)
            alignment_ms = tuple(
                self._frame_end_ms(a, base_sample=job.base_sample) for a in hyp.alignment
            )
            events.append(
                CascadeEvent(
                    EventKind.STAGE2_ACCEPT,
                    ts,
                    stage1_score=job.trigger_score,
                    stage2_score=hyp.score,
                    alignment_ms=alignment_ms,
                )
            )
            decision_sample = job.base_sample + self._frame_end_sample(frame)
            if self._speaker_profile is not None and self._speaker_model is not None:
                self._set_phase(CascadePhase.AWAITING_VERIFICATION)
                events.append(self._verify_speaker(job, hyp, ts))
        else:
            decision_sample = job.deadline_sample
            ts = round(decision_sample * 1000 / SAMPLE_RATE_HZ)
            events.append(
                CascadeEvent(EventKind.STAGE2_REJECT, ts, stage1_score=job.trigger_score)
            )
        self._stage2_job = None
        # Anchor the refractory where the decision was made: a snapshot accept
        # is stamped at its audio time, but is decided at the trigger.
        anchor = max(decision_sample, job.trigger_sample)
        self._suppress_until_sample = (
            anchor + self.config.refractory_ms * SAMPLE_RATE_HZ // 1000
        )
        self._set_phase(CascadePhase.LISTENING)
        return events

    def _verify_speaker(self, job, hyp, ts):
        first, last = hyp.alignment[0], hyp.alignment[-1]
        segment = [f for f in job.detector.features if first <= f.frame_index <= last]
        signature = speaker_mod.embed(segment, self._speaker_model)
        result = speaker_mod.verify(signature, self._speaker_profile)
        kind = EventKind.SPEAKER_ACCEPT if result.accepted else EventKind.SPEAKER_REJECT
        return CascadeEvent(kind, ts, speaker_score=result.score)
