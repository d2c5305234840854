"""The four workloads: seeded inputs, set-up, timed passes, output checks.

Every workload makes its inputs from the seed with ``kwscascade.synthetic``
and drives the package through its public API from one closed-loop
caller: the next operation starts when the previous one returns. An
operation is one ``Cascade.push_audio`` call, one ``cascade_table`` call
or one ``kwscascade evaluate`` run.

``generate`` writes the inputs (the benchmark's own work, never timed).
``setup`` is the user's set-up: load the serialized models, build the
cascade or scorers, read inputs through ``audio_io``. ``run`` repeats a
block of identical work (one pass over a stream workload's tape, or one
operation) until ``seconds`` have elapsed, or runs it once when
``seconds`` is None. Output checks run outside the timed operations;
``final_check`` holds those that call the package again, and runs after
the traced pass has restored the hooks, so that they add nothing to the
per-layer figures.

Every operation is timed on its own, and a block's cost is the sum of its
operations' times. In an untraced run the yardstick (see ``Yardstick``)
runs alongside and measures the speed the machine had during each block.
"""

import contextlib
import hashlib
import io
import math
import os
import signal
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

SAMPLE_RATE_HZ = 16000
STAGE1_THRESHOLD = 0.3
STAGE2_THRESHOLD = 0.4
# Criterion-9 window: a keyword's stage-2 accept is stamped within this
# distance of the planted keyword end.
ACCEPT_WINDOW_MS = 250
# A keyword is checked once the stream is this far past its end: the
# stage-2 window and the refractory period have both run out by then.
DUE_AFTER_MS = 3000
# Each pass over a tape starts from a fresh cascade primed, untimed, with
# about this much of the tape's end: enough to fill the 2 s ring and run
# out the 1 s refractory period. Every pass then does the same work, so
# passes can be compared with each other.
WARMUP_MS = 3000

# always-on-fixed: the first REFERENCE_SECONDS of every tape are the same
# clip (quiet noise and one lone keyword-unit tone), so the fixed-point
# feature bytes of that part of the input can be held to a digest recorded
# once, whatever the workload seed.
REFERENCE_SEED = 4242
REFERENCE_SECONDS = 4
REFERENCE_DIGEST = "a61b68ffffab50b8a0d80a780d7e71b315b91d6535db466281b83783f8c86f91"

# busy-float speakers: the owner's keywords carry a steady tone on a low
# mel channel, strangers' on a high one. The stage-2 tone model ignores
# both channels, so every keyword is still accepted, while the embedding
# of the aligned segment tells the two apart: owners score >= 0.9999 and
# strangers <= 0.9986 against the owner profile.
OWNER_CHANNEL = 3
STRANGER_CHANNEL = 28
TIMBRE_AMPLITUDE = 6000.0
SPEAKER_THRESHOLD = 0.9995

ORACLE_THRESHOLDS = [0.0, 0.35, 0.5, 0.65, 0.8]
ORACLE_STAGE2_THRESHOLD = 0.5
ORACLE_REFRACTORY_FRAMES = 100  # evaluation's 1000 ms default at a 10 ms hop

EVAL_THRESHOLDS = "0.3,0.5"
EVAL_CONFIG = f"""\
stage1.smoothing_window_frames = 10
stage1.threshold = {STAGE1_THRESHOLD}
stage2.smoothing_window_frames = 10
stage2.threshold = {STAGE2_THRESHOLD}
"""


# The yardstick: a fixed piece of the benchmark's own code in the
# package's mix of small numpy calls and Python-level loops. On a shared
# machine the speed one process gets moves by 30-50 % within seconds and
# from one hour to the next; a cost taken relative to yardstick work done
# at the same time moves much less. While a run measures, a wall-clock
# timer runs a slice of YARDSTICK_SLICE_FRAMES frames every
# YARDSTICK_PERIOD_S, inside whatever operation is running; each block's
# cost is then taken relative to the yardstick's speed during that block,
# and scaled to a machine on which one yardstick frame takes
# YARDSTICK_FRAME_S. The package never runs this code, so a change to the
# package moves only the cost.
YARDSTICK_FRAME_S = 40e-6
YARDSTICK_PERIOD_S = 0.05
YARDSTICK_SLICE_FRAMES = 100
_ys_rng = np.random.default_rng(0)
_YS_AUDIO = _ys_rng.integers(-2000, 2000, size=(32, 400)).astype(np.float64)
_YS_WINDOW = np.hanning(400)
_YS_MEL = np.abs(_ys_rng.standard_normal((40, 257)))
_YS_HIDDEN = _ys_rng.standard_normal((64, 120))
_YS_OUT = _ys_rng.standard_normal((4, 64))


def yardstick(frames):
    """Frame, FFT, log-mel, a two-layer net and a scalar loop per frame."""
    acc = 0
    history = [np.zeros(40)] * 3
    for i in range(frames):
        spec = np.fft.rfft(_YS_AUDIO[i % 32] * _YS_WINDOW, 512)
        mel = np.log(_YS_MEL @ (spec.real * spec.real + spec.imag * spec.imag) + 1.0)
        history = history[1:] + [mel]
        out = _YS_OUT @ np.maximum(_YS_HIDDEN @ np.concatenate(history), 0.0)
        for v in out.tolist() + mel[:24].tolist():
            acc = (acc * 31 + int(v)) % 1000003
    return acc


def yardstick_frame_s(frames):
    """Wall seconds per frame of one ``yardstick(frames)`` run now."""
    began = time.perf_counter()
    yardstick(frames)
    return (time.perf_counter() - began) / frames


class Yardstick:
    """Yardstick slices from a SIGALRM interval timer, while entered.

    Python runs the handler in the main thread between two bytecodes of
    whatever is running then, so slices land inside the timed operations;
    ``Measured.timed`` takes their time back out. Outside the ``with``
    block the counters stay as they are.
    """

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.frames = 0
        self._busy = False
        self._saved = None

    def _slice(self, signum, frame):
        if self._busy:  # a tick that arrives while a slice runs is dropped
            return
        self._busy = True
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            yardstick(YARDSTICK_SLICE_FRAMES)
            self.cpu_seconds += time.process_time() - cpu
            self.seconds += time.perf_counter() - wall
            self.frames += YARDSTICK_SLICE_FRAMES
        finally:
            self._busy = False

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_PERIOD_S, YARDSTICK_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False


@dataclass
class Measured:
    """What a run did and what each operation cost, in order.

    The run is ``blocks`` repeats of the same operations over
    ``block_audio_s`` seconds of audio.
    """

    block_audio_s: float
    blocks: int = 0
    op_s: list = field(default_factory=list)
    op_cpu_s: list = field(default_factory=list)
    block_s: list = field(default_factory=list)
    block_cpu_s: list = field(default_factory=list)
    yardstick_frame_s: list = field(default_factory=list)
    yardstick: Yardstick = field(default_factory=Yardstick)
    wake_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    keywords_checked: int = 0
    notes: list = field(default_factory=list)
    _block_first_op: int = 0
    _block_yardstick: tuple = (0.0, 0)

    def fail(self, message, count=1):
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(message)

    def measuring(self, log):
        """Context for a run's loop: the yardstick runs unless it is traced."""
        return self.yardstick if log is None else contextlib.nullcontext()

    def timed(self, op):
        """Run and time one operation; returns its result or raises.

        Yardstick slices that ran inside the operation are not its cost.
        The clocks are read outside the yardstick readings, so a slice that
        runs between the two is never taken out without having been timed.
        """
        ys = self.yardstick
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ys_wall0, ys_cpu0 = ys.seconds, ys.cpu_seconds
        try:
            return op()
        finally:
            ys_wall, ys_cpu = ys.seconds, ys.cpu_seconds
            cpu, wall = time.process_time(), time.perf_counter()
            self.op_cpu_s.append(cpu - cpu0 - (ys_cpu - ys_cpu0))
            self.op_s.append(wall - wall0 - (ys_wall - ys_wall0))
            self.attempted += 1

    @property
    def audio_s(self):
        return self.blocks * self.block_audio_s

    def start_block(self):
        self._block_first_op = len(self.op_s)
        self._block_yardstick = (self.yardstick.seconds, self.yardstick.frames)

    def end_block(self):
        """Close a block: its cost is the sum of its operations' times, and
        its speed the yardstick's seconds per frame since ``start_block``."""
        seconds, frames = self._block_yardstick
        frames = self.yardstick.frames - frames
        self.yardstick_frame_s.append(
            (self.yardstick.seconds - seconds) / frames if frames else math.nan)
        first = self._block_first_op
        self.block_s.append(sum(self.op_s[first:]))
        self.block_cpu_s.append(sum(self.op_cpu_s[first:]))
        self.blocks += 1

    def block_cost(self, cpu=False):
        """Seconds per block, the median over the run's blocks."""
        return float(np.median(self.block_cpu_s if cpu else self.block_s))

    def relative_cost(self, cpu=False):
        """Seconds per block at reference speed: the median over blocks of
        each block's cost over the yardstick's seconds per frame during it,
        times YARDSTICK_FRAME_S."""
        costs = np.asarray(self.block_cpu_s if cpu else self.block_s)
        return float(np.median(costs / np.asarray(self.yardstick_frame_s))) * YARDSTICK_FRAME_S


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _decoder_configs(pkg):
    def make(threshold):
        return pkg.kws.DecoderConfig(3, smoothing_window_frames=10,
                                     score_window_frames=100, threshold=threshold)
    return make(STAGE1_THRESHOLD), make(STAGE2_THRESHOLD)


def _mix(base, clip, at):
    base[at : at + len(clip)] += clip


def _to_int16(samples):
    return np.clip(samples, -32768, 32767).astype(np.int16)


# ---------------------------------------------------------------------------
# Stream workloads
# ---------------------------------------------------------------------------


def feature_digest(frames):
    """sha256 over the float64 bytes of each frame's channels, in order."""
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(np.asarray(frame.channels, dtype=np.float64).tobytes())
    return digest.hexdigest()


def reference_features(pkg, samples, chunk=160):
    """Fixed-point features of ``samples`` pushed ``chunk`` samples at a time."""
    config = pkg.kws.FrontendConfig(arithmetic_mode=pkg.kws.ArithmeticMode.FIXED_POINT)
    stream = pkg.kws.FrontendStream(config)
    frames = []
    for start in range(0, len(samples), chunk):
        frames.extend(stream.push(samples[start : start + chunk]))
    return frames


def digest_problems(frames):
    """Bit-exactness: the reference clip's fixed features hash to the record."""
    digest = feature_digest(frames)
    if digest != REFERENCE_DIGEST:
        return [f"fixed-point feature digest {digest} != recorded {REFERENCE_DIGEST}"]
    return []


def missed_keywords(keyword_ends_ms, accept_ms, stream_ms):
    """Planted keyword ends that are due but have no stage-2 accept near them.

    A keyword is due once the stream has run DUE_AFTER_MS past its end.
    Only the accept's stamp is checked, not when it was emitted, and an
    accept stamped before its own trigger still counts.
    """
    accept_ms = np.sort(np.asarray(accept_ms, dtype=np.int64))
    missed = []
    for end in keyword_ends_ms:
        if end + DUE_AFTER_MS > stream_ms:
            continue
        i = np.searchsorted(accept_ms, end - ACCEPT_WINDOW_MS)
        if i == len(accept_ms) or accept_ms[i] > end + ACCEPT_WINDOW_MS:
            missed.append(int(end))
    return missed


class StreamWorkload:
    """A cascade fed one tape of audio in fixed-size pushes, pass after pass.

    ``fixed`` picks one of two settings. Fixed: quiet tape, fixed-point
    frontend, no noise suppression or speaker check, and the reference
    clip's feature digest. Float: busy tape, float frontend with noise
    suppression, and the speaker check against an enrolled owner.
    """

    stream = True

    def __init__(self, name, why, fixed, chunk_samples, tape_seconds):
        self.name = name
        self.why = why
        self.fixed = fixed
        self.chunk_samples = chunk_samples
        self.tape_seconds = tape_seconds

    def _frontend(self, pkg):
        kws = pkg.kws
        if self.fixed:
            return kws.FrontendConfig(arithmetic_mode=kws.ArithmeticMode.FIXED_POINT)
        return kws.FrontendConfig(noise_suppression_enabled=True)

    # -- inputs -------------------------------------------------------------

    def generate(self, pkg, seed, workdir):
        syn = pkg.synthetic
        frontend = self._frontend(pkg)
        rng = np.random.default_rng(seed)
        files = {
            "stage1": os.path.join(workdir, "stage1.kwsq"),
            "stage2": os.path.join(workdir, "stage2.kwsq"),
            "tape": os.path.join(workdir, "tape.wav"),
        }
        _write(files["stage1"], pkg.encoder.serialize_model(
            syn.make_tone_acoustic_model(frontend, 3, name="stage1")))
        _write(files["stage2"], pkg.encoder.serialize_model(
            syn.make_tone_acoustic_model(frontend, 3, stacked_frames=2, name="stage2")))
        if self.fixed:
            tape, ends = self._quiet_tape(pkg, rng, frontend)
        else:
            tape, ends = self._busy_tape(pkg, rng, seed, frontend)
            files["embedding"] = os.path.join(workdir, "embedding.kwsq")
            files["profile"] = os.path.join(workdir, "profile.kwsv")
            embedding = syn.make_random_embedding_model(frontend, dim=64)
            _write(files["embedding"], pkg.encoder.serialize_model(embedding))
            _write(files["profile"], self._owner_profile(pkg, seed, frontend, embedding))
        pkg.audio_io.write_wav(files["tape"], tape)
        return SimpleNamespace(files=files, keyword_ends_ms=ends,
                               tape_ms=len(tape) * 1000 // SAMPLE_RATE_HZ)

    @staticmethod
    def _keyword(pkg, frontend):
        samples, end_ms = pkg.synthetic.synth_keyword_audio(
            frontend, 3, unit_ms=150, lead_silence_ms=0, trail_silence_ms=0)
        return samples.astype(np.int64), end_ms

    def _quiet_tape(self, pkg, rng, frontend):
        # Quiet room: the reference clip, then one keyword somewhere in the
        # rest of the tape. Stage 2 sees about a tenth of stage 1's frames.
        syn = pkg.synthetic
        ref_len = REFERENCE_SECONDS * SAMPLE_RATE_HZ
        reference = syn.synth_noise(ref_len, np.random.default_rng(REFERENCE_SEED))
        unit0 = pkg.frontend.mel_center_frequencies(frontend)[
            syn.tone_unit_channels(frontend, 3)[0]]
        lone = syn.synth_tone(unit0, 150 * SAMPLE_RATE_HZ // 1000, amplitude=6000.0)
        tape = np.concatenate([
            reference.astype(np.int64),
            syn.synth_noise(self.tape_seconds * SAMPLE_RATE_HZ - ref_len, rng).astype(np.int64),
        ])
        _mix(tape, lone.astype(np.int64), SAMPLE_RATE_HZ)
        keyword, end_ms = self._keyword(pkg, frontend)
        at = ref_len + int(rng.uniform(2, 14) * SAMPLE_RATE_HZ)
        _mix(tape, keyword, at)
        return _to_int16(tape), [at * 1000 // SAMPLE_RATE_HZ + end_ms]

    def _busy_tape(self, pkg, rng, seed, frontend):
        # Speech-like noise at RMS 2000 keeps stage 1 waking every second or
        # two. Four keywords per tape, 4.5 s apart give or take 1.5 s, each
        # from the enrolled owner or a stranger at random.
        syn = pkg.synthetic
        total = self.tape_seconds * SAMPLE_RATE_HZ
        tape = syn.speech_like_noise(total, seed=seed, rms=2000.0).astype(np.int64)
        keyword, end_ms = self._keyword(pkg, frontend)
        ends = []
        for k in range(4):
            at = int((1.5 + 4.5 * k + rng.uniform(0, 1.5)) * SAMPLE_RATE_HZ)
            channel = OWNER_CHANNEL if rng.uniform() < 0.5 else STRANGER_CHANNEL
            _mix(tape, keyword + self._timbre(pkg, frontend, channel, len(keyword)), at)
            ends.append(at * 1000 // SAMPLE_RATE_HZ + end_ms)
        return _to_int16(tape), ends

    @staticmethod
    def _timbre(pkg, frontend, channel, length):
        freq = pkg.frontend.mel_center_frequencies(frontend)[channel]
        return pkg.synthetic.synth_tone(freq, length, TIMBRE_AMPLITUDE).astype(np.int64)

    def _owner_profile(self, pkg, seed, frontend, embedding):
        """Enroll three owner keywords heard in the same kind of noise."""
        syn, kws = pkg.synthetic, pkg.kws
        _, stage2_config = _decoder_configs(pkg)
        stage2 = syn.make_tone_acoustic_model(frontend, 3, stacked_frames=2)
        keyword, _ = self._keyword(pkg, frontend)
        pad = np.zeros(SAMPLE_RATE_HZ // 2, dtype=np.int64)
        take = np.concatenate([pad, keyword + self._timbre(pkg, frontend, OWNER_CHANNEL,
                                                           len(keyword)), pad])
        signatures = []
        for i in range(3):
            noise = syn.speech_like_noise(len(take), seed=seed * 7 + 1000 + i, rms=2000.0)
            detector = kws.DetectorStream(frontend, stage2, stage2_config,
                                          kws.AccumMode.FLOAT, keep_features=True)
            hits = detector.push(_to_int16(take + noise))
            _, best = max(hits, key=lambda item: item[1].score)
            first, last = best.alignment[0], best.alignment[-1]
            segment = [f for f in detector.features if first <= f.frame_index <= last]
            signatures.append(kws.embed(segment, embedding))
        return pkg.speaker.serialize_profile(kws.enroll(signatures, SPEAKER_THRESHOLD))

    # -- set-up and passes ----------------------------------------------------

    def setup(self, pkg, inputs):
        kws = pkg.kws
        files = inputs.files
        stage1 = kws.load_model(_read(files["stage1"]))
        stage2 = kws.load_model(_read(files["stage2"]))
        speaker_model = profile = None
        if not self.fixed:
            speaker_model = kws.load_model(_read(files["embedding"]))
            profile = pkg.speaker.load_profile(_read(files["profile"]))
        stage1_config, stage2_config = _decoder_configs(pkg)
        config = kws.CascadeConfig(
            frontend=self._frontend(pkg),
            stage1_decoder=stage1_config,
            stage2_decoder=stage2_config,
            stage1_mode=kws.AccumMode.FIXED,
        )

        def make_cascade():
            return kws.Cascade(config, stage1, stage2, speaker_model, profile)

        return SimpleNamespace(
            pkg=pkg,
            cascade=make_cascade(),
            make_cascade=make_cascade,
            tape=pkg.audio_io.read_wav(files["tape"]).samples,
            keyword_ends_ms=inputs.keyword_ends_ms,
            tape_ms=inputs.tape_ms,
        )

    def run(self, state, seconds, log=None):
        tape, chunk = state.tape, self.chunk_samples
        pieces = [tape[start : start + chunk] for start in range(0, len(tape), chunk)]
        warmup = pieces[-(WARMUP_MS * SAMPLE_RATE_HZ // 1000 // chunk):]
        warmup_ms = len(warmup) * chunk * 1000 // SAMPLE_RATE_HZ
        m = Measured(len(tape) / SAMPLE_RATE_HZ)
        accept_ms = []  # on the timeline of the passes laid end to end
        cascade = state.cascade
        started = time.perf_counter()
        with m.measuring(log):
            while True:
                for piece in warmup:
                    cascade.push_audio(piece)
                if log is not None:
                    log.clear()
                offset = m.blocks * state.tape_ms - warmup_ms
                m.start_block()
                for piece in pieces:
                    if log is not None:
                        log.request_id = m.attempted
                    try:
                        events = m.timed(lambda: cascade.push_audio(piece))
                    except Exception as exc:  # counted against error_rate; the loop goes on
                        m.fail(f"push {m.attempted}: {type(exc).__name__}: {exc}")
                        events = []
                    kinds = [event.kind.value for event in events]
                    if "stage1_trigger" in kinds:
                        m.wake_s.append(m.op_s[-1])
                    accept_ms.extend(offset + e.timestamp_ms
                                     for e, kind in zip(events, kinds) if kind == "stage2_accept")
                m.end_block()
                if seconds is None or time.perf_counter() - started >= seconds:
                    break
                cascade = state.make_cascade()
        stream_ms = m.blocks * state.tape_ms
        ends = [p * state.tape_ms + end
                for p in range(m.blocks) for end in state.keyword_ends_ms]
        missed = missed_keywords(ends, accept_ms, stream_ms)
        if missed:
            m.fail(f"no stage2_accept within {ACCEPT_WINDOW_MS} ms of keyword ends "
                   f"{missed[:5]} ms", len(missed))
        m.keywords_checked = sum(1 for e in ends if e + DUE_AFTER_MS <= stream_ms)
        return m

    def final_check(self, state, m):
        """Checks that run the package once more: call them outside any hooks."""
        if not self.fixed:
            return
        m.attempted += 1
        clip = state.tape[: REFERENCE_SECONDS * SAMPLE_RATE_HZ]
        try:
            problems = digest_problems(reference_features(state.pkg, clip))
        except Exception as exc:  # counted against error_rate
            problems = [f"fixed-point features raised {type(exc).__name__}: {exc}"]
        if problems:
            m.fail(problems[0])

    def sizes(self, state):
        return {"tape_audio_s": state.tape_ms / 1000,
                "tape_keywords": len(state.keyword_ends_ms),
                "chunk_samples": self.chunk_samples}


# ---------------------------------------------------------------------------
# Offline evaluation workloads
# ---------------------------------------------------------------------------


def _repeat(op, check, seconds, audio_s, log=None):
    """Time ``op`` until ``seconds`` have elapsed; ``check`` each output after.

    ``check`` returns a list of problems, empty when the output is right.
    """
    m = Measured(audio_s)
    started = time.perf_counter()
    with m.measuring(log):
        while True:
            if log is not None:
                log.request_id = m.attempted
            m.start_block()
            try:
                problems = check(m.timed(op))
            except Exception as exc:  # counted against error_rate; the loop goes on
                problems = [f"raised {type(exc).__name__}: {exc}"]
            m.end_block()
            if problems:
                m.fail("; ".join(problems[:3]))
            if seconds is None or time.perf_counter() - started >= seconds:
                break
    return m


def predicted_oracle_counts(corpus, thresholds, stage2_threshold,
                            refractory_frames=ORACLE_REFRACTORY_FRAMES):
    """Event counts the generator's planted peaks imply, one tuple per row.

    Each row is (stage-1 FAs, stage-1 misses, cascade FAs, cascade misses);
    the first is the stage-1-disabled row with None for stage 1. A planted
    peak is the decoder score, so an event crosses a threshold exactly when
    its peak does; a stage-1 threshold of 0 passes every frame, which the
    greedy refractory dedup turns into ceil(frames / (refractory + 1))
    events per stream. The speaker gate passes an event exactly when the
    generator marked it as verifying.
    """
    impostors = [e for s in corpus.negatives for e in s.events]
    positives = [p.stream.events[0] for p in corpus.positives]

    def stage1_fa(t1):
        if t1 <= 0:
            return sum(math.ceil(s.num_frames / (refractory_frames + 1))
                       for s in corpus.negatives)
        return sum(1 for e in impostors if e.stage1_peak >= t1)

    def passes(e, t1):
        return e.stage1_peak >= t1 and e.stage2_peak >= stage2_threshold and e.verifies

    rows = [(None, None, sum(passes(e, 0.0) for e in impostors),
             sum(not passes(e, 0.0) for e in positives))]
    for t1 in thresholds:
        rows.append((stage1_fa(t1), sum(e.stage1_peak < t1 for e in positives),
                     sum(passes(e, t1) for e in impostors),
                     sum(not passes(e, t1) for e in positives)))
    return rows


def oracle_table_problems(table, corpus, thresholds, stage2_threshold):
    """Differences between a cascade table and the planted-peak prediction."""
    hours = sum(s.duration_hours for s in corpus.negatives)
    npos = len(corpus.positives)
    predicted = predicted_oracle_counts(corpus, thresholds, stage2_threshold)
    if len(table.rows) != len(predicted):
        return [f"table has {len(table.rows)} rows, expected {len(predicted)}"]
    problems = []
    columns = ("stage1_fa_per_hr", "stage1_frr", "cascade_fa_per_hr", "cascade_frr")
    for i, (row, want) in enumerate(zip(table.rows, predicted)):
        for column, expected in zip(columns, want):
            value = getattr(row, column)
            if expected is None:
                if value is not None:
                    problems.append(f"row {i} {column}: {value}, expected None")
                continue
            base = hours if "fa" in column else npos
            if value is None or abs(value * base - expected) > 1e-6:
                problems.append(f"row {i} {column}: {value}, expected {expected / base}")
    return problems


class EvalOracleWorkload:
    """cascade_table over the criterion-6/8 posterior corpus, speaker gate on."""

    stream = False
    name = "eval-oracle"
    why = ("offline FA/hr-vs-FRR table over a 2 h posterior corpus: batch decoder "
           "scoring and event counting only, no audio layer")

    def generate(self, pkg, seed, workdir):
        return pkg.synthetic.generate_posterior_corpus(seed=seed)

    def setup(self, pkg, corpus):
        config = pkg.synthetic.oracle_decoder_config()
        evaluation = pkg.evaluation
        return SimpleNamespace(
            pkg=pkg,
            corpus=corpus,
            stage1=evaluation.DecoderScorer(config, "stage1"),
            stage2=evaluation.DecoderScorer(config, "stage2"),
        )

    def run(self, state, seconds, log=None):
        corpus = state.corpus
        frames = (sum(s.num_frames for s in corpus.negatives)
                  + sum(p.stream.num_frames for p in corpus.positives))
        audio_s = frames * corpus.negatives[0].hop_ms / 1000

        def op():
            return state.pkg.evaluation.cascade_table(
                state.stage1, state.stage2, corpus, ORACLE_THRESHOLDS,
                ORACLE_STAGE2_THRESHOLD, speaker_verification=True)

        def check(table):
            return oracle_table_problems(table, corpus, ORACLE_THRESHOLDS,
                                         ORACLE_STAGE2_THRESHOLD)

        return _repeat(op, check, seconds, audio_s, log)

    def final_check(self, state, m):
        pass

    def sizes(self, state):
        corpus = state.corpus
        return {"corpus_negative_hours": corpus.negative_hours,
                "corpus_positives": len(corpus.positives)}


def evaluate_output_problems(exit_code, csv_text):
    """The tone corpus must score FA/hr 0 and FRR 0 in every cell."""
    if exit_code != 0:
        return [f"evaluate exited {exit_code}"]
    lines = csv_text.strip().splitlines()
    if len(lines) < 2 or not lines[0].startswith("stage1_threshold,"):
        return [f"unexpected evaluate output {csv_text[:80]!r}"]
    problems = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            problems.append(f"bad row {line!r}")
        elif any(cell and float(cell) != 0.0 for cell in cells[1:]):
            problems.append(f"nonzero FA/hr or FRR in row {line!r}")
    return problems


class EvalAudioWorkload:
    """``kwscascade evaluate`` in-process over a generated WAV corpus."""

    stream = False
    name = "eval-audio"
    why = ("kwscascade evaluate on about 100 s of tone-keyword WAVs: the only "
           "workload running audio_io, cli and PipelineScorer")

    def generate(self, pkg, seed, workdir):
        frontend = pkg.kws.FrontendConfig()
        syn = pkg.synthetic
        corpus_dir = os.path.join(workdir, "corpus")
        manifest = syn.generate_audio_corpus(seed, corpus_dir, num_positives=10,
                                             num_negatives=2, negative_seconds=45.0)
        files = {"manifest": manifest,
                 "stage1": os.path.join(workdir, "stage1.kwsq"),
                 "stage2": os.path.join(workdir, "stage2.kwsq"),
                 "config": os.path.join(workdir, "eval.cfg")}
        _write(files["stage1"], pkg.encoder.serialize_model(
            syn.make_tone_acoustic_model(frontend, 3)))
        _write(files["stage2"], pkg.encoder.serialize_model(
            syn.make_tone_acoustic_model(frontend, 3, stacked_frames=2)))
        _write(files["config"], EVAL_CONFIG.encode())
        return files

    def setup(self, pkg, files):
        models = [pkg.kws.load_model(_read(files[k])) for k in ("stage1", "stage2")]
        corpus = pkg.synthetic.load_audio_corpus(files["manifest"])
        audio_s = (sum(s.duration_ms for s in corpus.negatives)
                   + sum(p.stream.duration_ms for p in corpus.positives)) / 1000
        return SimpleNamespace(pkg=pkg, files=files, models=models, audio_s=audio_s,
                               wavs=len(corpus.negatives) + len(corpus.positives))

    def run(self, state, seconds, log=None):
        files = state.files
        argv = ["evaluate", "--manifest", files["manifest"],
                "--stage1", files["stage1"], "--stage2", files["stage2"],
                "--thresholds", EVAL_THRESHOLDS,
                "--stage2-threshold", str(STAGE2_THRESHOLD), "--config", files["config"]]

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = state.pkg.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(output):
            code, out, err = output
            problems = evaluate_output_problems(code, out)
            if problems and code != 0:
                problems.append(err.strip()[-200:])
            return problems

        return _repeat(op, check, seconds, state.audio_s, log)

    def final_check(self, state, m):
        pass

    def sizes(self, state):
        return {"corpus_audio_s": state.audio_s, "corpus_wavs": state.wavs}


WORKLOADS = {
    w.name: w
    for w in (
        StreamWorkload(
            "always-on-fixed",
            "the paper's always-on path: fixed-point frontend and stage 1 on quiet "
            "audio in 10 ms pushes, rare keywords, so stage 1 dominates",
            fixed=True, chunk_samples=160, tape_seconds=24),
        StreamWorkload(
            "busy-float",
            "float frontend with noise tracker and speaker check on loud speech-like "
            "noise in 160 ms pushes: stage 1 wakes often, stage 2 dominates",
            fixed=False, chunk_samples=2560, tape_seconds=20),
        EvalOracleWorkload(),
        EvalAudioWorkload(),
    )
}
