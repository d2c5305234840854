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

A detector push returns the decoder's Hits (see decoder.Hits): push_audio
reads stage 1's score row and visits only the frames at or over its
threshold, and stage2_pass builds the one hypothesis it accepts.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decoder import DecoderConfig, StreamingDecoder
from .encoder import ModelKind, check_kind, forward_vector, stack_frames
from .frontend import (SAMPLE_RATE_HZ, ConfigError, FrontendConfig, FrontendStream, _pcm,
                       check_bounds, frame_end_sample, pcm_blocks, samples_to_ms, setting)
from .quantize import AccumMode, DimensionError
from . import speaker as speaker_mod


class LifecycleError(RuntimeError):
    """Cascade built without both stage models, or with only half of the speaker check."""


class BudgetViolationError(ValueError):
    """Stage-1 model does not fit its memory budget line."""

    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class MemoryBudget:
    """DSP memory partition; all lines must fit in total_bytes."""

    total_bytes: int = setting(131072)
    program_bytes: int = setting(25600, ge=0)
    tables_bytes: int = setting(12288, ge=0)
    buffer_bytes: int = setting(64000, ge=0)
    model_budget_bytes: int = setting(13312, ge=0)

    def __post_init__(self):
        check_bounds(self)
        used = self.program_bytes + self.tables_bytes + self.buffer_bytes + self.model_budget_bytes
        if used > self.total_bytes:
            raise ConfigError(
                f"budget lines sum to {used} bytes, over the {self.total_bytes}-byte total"
            )


@dataclass
class BudgetReport:
    model_bytes: int
    budget: MemoryBudget
    ok: bool
    overage_bytes: int

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
        head = f"stage-1 model {self.model_bytes} bytes: " + (
            "ok" if self.ok else f"over budget by {self.overage_bytes} bytes"
        )
        detail = ", ".join(f"{name}={size}" for name, size in self.lines())
        return f"{head} ({detail})"


def enforce_budget(budget, model):
    """Check a stage-1 model against the budget's model line; BudgetViolationError if over.

    Stage 2 runs on the AP and has no budget line.
    """
    size = model.byte_size
    overage = max(0, size - budget.model_budget_bytes)
    report = BudgetReport(size, budget, overage == 0, overage)
    if not report.ok:
        raise BudgetViolationError(report)
    return report


class RingBuffer:
    """Circular int16 sample store; a Cascade sizes it to its budget's audio line."""

    def __init__(self, capacity_samples):
        if capacity_samples < 1:
            raise ValueError("capacity must be positive")
        self.capacity_samples = capacity_samples
        self._storage = np.zeros(capacity_samples, dtype=np.int16)
        self._write_index = 0
        self.total_written = 0

    def write(self, samples):
        samples = _pcm(samples)
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
    """Frontend + encoder + decoder chained over streaming PCM.

    ``push_frames`` is the encoder-and-decoder head alone, fed the frames of
    a frontend outside it, so one frontend pass can feed several heads.
    """

    def __init__(self, frontend_config, model, decoder_config,
                 mode=AccumMode.FIXED, keep_features=False):
        check_kind(model, ModelKind.ACOUSTIC, "detector")
        self._frontend = FrontendStream(frontend_config)
        self._model = model
        self._decoder = StreamingDecoder(decoder_config,
                                         first_frame_index=model.num_stacked_frames - 1)
        self._mode = mode
        # the last num_stacked_frames - 1 feature rows, the next stack's history
        self._tail = np.zeros((0, frontend_config.num_channels))
        self.features = [] if keep_features else None

    @property
    def decoder_config(self):
        return self._decoder.config

    def push(self, samples):
        """Feed PCM; return the decoder's Hits, (feature_frame_index, KeywordHypothesis)
        pairs."""
        return self.push_frames(self._frontend.push(samples))

    def push_frames(self, frames):
        """Feed the FeatureFrames of the next push of a frontend on this detector's
        config; return the decoder's Hits, (feature_frame_index, KeywordHypothesis)
        pairs."""
        if not frames:
            return self._decoder._no_hits()
        if self.features is not None:
            self.features.extend(frames)
        rows = frames.channels
        stacked = self._model.num_stacked_frames
        if stacked > 1:
            rows = np.concatenate((self._tail, rows))
            self._tail = rows[max(0, len(rows) - stacked + 1) :].copy()
            rows = stack_frames(rows, stacked)
        probs = forward_vector(self._model, rows, self._mode)
        return self._decoder.push(probs[:, : self._model.num_units])


def stage2_pass(detector, samples):
    """Push ``samples`` through a stage-2 detector that keeps its features, a block
    at a time (see ``pcm_blocks``), up to the block of its first frame at or over
    threshold: (frame_index, hypothesis, the feature frames of its alignment), or
    None. Every speaker check embeds this one segment."""
    for block in pcm_blocks(samples):
        hits = detector.push(block)
        above = np.flatnonzero(hits.scores >= detector.decoder_config.threshold)
        if len(above):
            frame_index, hyp = hits[above[0]]
            first, last = hyp.alignment[0], hyp.alignment[-1]
            return frame_index, hyp, detector.features[first : last + 1]
    return None


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
    stage2_window_ms: int = setting(1000, ge=0)
    refractory_ms: int = setting(1000, ge=0)
    stage1_mode: AccumMode = AccumMode.FIXED

    def __post_init__(self):
        check_bounds(self)
        if self.budget.buffer_bytes < 2:
            raise ConfigError(f"buffer_bytes {self.budget.buffer_bytes} cannot hold one sample")


@dataclass
class CascadeStats:
    """Samples pushed (stage 1 runs all), samples stage 2 ran from each job's
    snapshot start to its decision, and triggers: the same for any chunking."""

    samples: int = 0
    stage2_samples: int = 0
    triggers: int = 0


def check_model(frontend_config, model, role, kind=ModelKind.ACOUSTIC):
    """DimensionError unless ``model`` is of ``kind`` and reads the frontend's
    feature width."""
    check_kind(model, kind, role)
    if model.num_channels != frontend_config.num_channels:
        raise DimensionError(f"frontend.num_channels {frontend_config.num_channels} != "
                             f"{role} model num_channels {model.num_channels}")


def check_profile(profile, speaker_model):
    """DimensionError unless ``profile`` has the speaker model's embedding width."""
    dim = len(profile.signature.vector)
    if dim != speaker_model.num_units:
        raise DimensionError(f"profile dim {dim} != speaker model "
                             f"num_units {speaker_model.num_units}")


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
        if (speaker_model is None) != (speaker_profile is None):
            raise LifecycleError("the speaker check needs both a speaker model and a profile")
        self.config = config
        enforce_budget(config.budget, stage1_model)
        check_model(config.frontend, stage1_model, "stage-1")
        check_model(config.frontend, stage2_model, "stage-2")
        if speaker_model is not None:
            check_model(config.frontend, speaker_model, "speaker", ModelKind.EMBEDDING)
            check_profile(speaker_profile, speaker_model)
        self._stage2_model = stage2_model
        self._speaker_model = speaker_model
        self._speaker_profile = speaker_profile
        self._ring = RingBuffer(config.budget.buffer_bytes // 2)  # the budget's audio line
        self._stage1 = self._new_detector(stage1_model, config.stage1_decoder,
                                          config.stage1_mode)
        self._stage2_job = None
        self._suppress_until_sample = 0
        self._accepted_end_sample = 0
        self.stats = CascadeStats()

    def _new_detector(self, model, decoder_config, mode, keep_features=False):
        # Stages may share frontend settings but never a frontend instance.
        return DetectorStream(self.config.frontend, model, decoder_config,
                              mode, keep_features=keep_features)

    def push_audio(self, chunk):
        """Append a chunk, run both stages cooperatively, return new events."""
        samples = _pcm(chunk)
        first = self._ring.total_written  # absolute sample index of samples[0]
        self.stats.samples += len(samples)
        events = []
        # stage-2 first, so its (earlier) decisions gate this chunk's triggers;
        # a job still running after the whole chunk gates all of them
        if self._stage2_job is not None:
            events.extend(self._feed_stage2(samples, first))
        cut = 0  # samples[:cut] are in the ring
        hits = self._stage1.push(samples)
        for i in np.flatnonzero(hits.scores >= self.config.stage1_decoder.threshold).tolist():
            trigger = frame_end_sample(hits.first_frame + i, self.config.frontend)
            if self._stage2_job is not None or trigger < self._suppress_until_sample:
                continue
            score = float(hits.scores[i])
            self._ring.write(samples[cut : trigger - first])
            cut = trigger - first
            ts = samples_to_ms(trigger)
            events.append(CascadeEvent(EventKind.STAGE1_TRIGGER, ts, stage1_score=score))
            self.stats.triggers += 1
            # the snapshot ends at the trigger frame, starts after the last accepted
            # keyword (so stage 2 cannot accept it again) and on stage 1's frame grid
            snap = self._ring.snapshot()
            snap = snap[max(0, self._accepted_end_sample - (trigger - len(snap))) :]
            snap = snap[(len(snap) - trigger) % self.config.frontend.hop_samples :]
            detector = self._new_detector(
                self._stage2_model, self.config.stage2_decoder, AccumMode.FLOAT,
                keep_features=True,
            )
            self._stage2_job = _Stage2Job(
                detector,
                base_sample=trigger - len(snap),
                trigger_sample=trigger,
                deadline_sample=trigger + self.config.stage2_window_ms * SAMPLE_RATE_HZ // 1000,
                trigger_score=score,
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
        return self._conclude_stage2(accept=None)

    def _feed_stage2(self, samples, first_sample):
        """Run the job over samples starting at absolute first_sample, up to its deadline."""
        job = self._stage2_job
        samples = samples[: job.deadline_sample - first_sample]
        accept = stage2_pass(job.detector, samples)
        if accept is not None or first_sample + len(samples) >= job.deadline_sample:
            return self._conclude_stage2(accept)
        return []

    def _conclude_stage2(self, accept):
        job, self._stage2_job = self._stage2_job, None
        frontend = self.config.frontend
        if accept is not None:
            frame, hyp, segment = accept
            decision_sample = job.base_sample + frame_end_sample(frame, frontend)
            ts = samples_to_ms(decision_sample)
            ends = [job.base_sample + frame_end_sample(a, frontend) for a in hyp.alignment]
            self._accepted_end_sample = ends[-1]
            alignment_ms = tuple(samples_to_ms(end) for end in ends)
            events = [CascadeEvent(EventKind.STAGE2_ACCEPT, ts, stage1_score=job.trigger_score,
                                   stage2_score=hyp.score, alignment_ms=alignment_ms)]
            if self._speaker_model is not None:
                events.append(self._verify_speaker(segment, ts))
        else:
            decision_sample = job.deadline_sample
            events = [CascadeEvent(EventKind.STAGE2_REJECT, samples_to_ms(decision_sample),
                                   stage1_score=job.trigger_score)]
        self.stats.stage2_samples += decision_sample - job.base_sample
        # Anchor the refractory where the decision was made: a snapshot accept
        # is stamped at its audio time, but is decided at the trigger.
        anchor = max(decision_sample, job.trigger_sample)
        self._suppress_until_sample = (
            anchor + self.config.refractory_ms * SAMPLE_RATE_HZ // 1000
        )
        return events

    def _verify_speaker(self, segment, ts):
        """The speaker decision on an accept's segment, stamped at the accept. A segment
        the verifier cannot score (``speaker.UnscorableError``) is a speaker_reject with
        no speaker_score."""
        try:
            result = speaker_mod.verify(speaker_mod.embed(segment, self._speaker_model),
                                        self._speaker_profile)
        except speaker_mod.UnscorableError:
            return CascadeEvent(EventKind.SPEAKER_REJECT, ts)
        kind = EventKind.SPEAKER_ACCEPT if result.accepted else EventKind.SPEAKER_REJECT
        return CascadeEvent(kind, ts, speaker_score=result.score)
