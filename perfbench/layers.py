"""The kwscascade hook table and the per-layer metrics derived from it.

Each hook names the place its caller looks the function up (for example
``kwscascade.cascade:forward_vector``, not
``kwscascade.encoder:forward_vector``), so the wrapper is what the
pipeline actually calls; a name nothing calls through is not hooked. No
hooked function calls another hook of the same span name, so a span's
total never counts nested time twice. When a later change renames or
deletes one of these entry points, its layer reads null with a note, and
this table is what a benchmark change updates.
"""

import weakref

from spans import Hook, span_totals

SAMPLE_RATE_HZ = 16000
_STAGE_SPANS = {"cascade.init": "cascade.stage1", "cascade.push": "cascade.stage2"}


def make_hooks():
    """A fresh hook list whose callbacks keep their state in this closure."""
    detector_stage = weakref.WeakKeyDictionary()  # DetectorStream -> span name
    last_trigger_ms = weakref.WeakKeyDictionary()  # Cascade -> newest trigger

    def detector_span(args):
        return detector_stage.get(args[0], "detector.push")

    def on_detector_init(log, args, result):
        # A detector built while Cascade.__init__ runs is stage 1; one built
        # inside push_audio is a stage-2 job. Anything else is a scorer's.
        detector_stage[args[0]] = _STAGE_SPANS.get(log.current(), "detector.push")

    def on_detector_push(log, args, result):
        stage = detector_stage.get(args[0])
        if stage in ("cascade.stage1", "cascade.stage2"):
            log.count(f"{stage}.frames", len(result))
        if stage == "cascade.stage2":
            log.count("cascade.stage2.samples", len(args[1]))

    def on_push_audio(log, args, events):
        cascade = args[0]
        for event in events:
            kind = event.kind.value
            if kind == "stage1_trigger":
                log.count("cascade.wakes")
                last_trigger_ms[cascade] = event.timestamp_ms
            elif kind in ("stage2_accept", "stage2_reject"):
                log.count("cascade.accepts" if kind == "stage2_accept" else "cascade.rejects")
                if event.timestamp_ms < last_trigger_ms.get(cascade, event.timestamp_ms):
                    log.count("cascade.decisions_before_trigger")

    def on_forward(log, args, result):
        if getattr(getattr(args[0], "kind", None), "name", None) == "ACOUSTIC":
            log.count("encoder.frames")

    def counter(key, amount):
        return lambda log, args, result: log.count(key, amount(args, result))

    return [
        Hook("frontend", "kwscascade.frontend:FrontendStream.push", "frontend.push",
             counter("frontend.frames", lambda a, r: len(r))),
        Hook("frontend", "kwscascade.frontend:frame_audio", "frontend.framing"),
        Hook("frontend", "kwscascade.frontend:power_spectra", "frontend.power"),
        Hook("frontend", "kwscascade.frontend:NoiseFloorTracker.process", "frontend.noise"),
        Hook("fixedpoint", "kwscascade.fixedpoint:fft_fixed", "fixedpoint.fft"),
        Hook("fixedpoint", "kwscascade.fixedpoint:fixed_ln", "fixedpoint.ln"),
        Hook("quantize", "kwscascade.encoder:fixed_accumulate", "quantize.matvec"),
        Hook("quantize", "kwscascade.encoder:quantize", "quantize.quantize"),
        Hook("encoder", "kwscascade.cascade:forward_vector", "encoder.forward", on_forward),
        Hook("encoder", "kwscascade.speaker:forward_vector", "encoder.forward", on_forward),
        Hook("decoder", "kwscascade.decoder:StreamingDecoder.push", "decoder.stream"),
        Hook("decoder", "kwscascade.evaluation:batch_frame_scores", "decoder.batch",
             counter("decoder.batch.frames", lambda a, r: len(r))),
        Hook("cascade", "kwscascade.cascade:Cascade.__init__", "cascade.init"),
        Hook("cascade", "kwscascade.cascade:Cascade.push_audio", "cascade.push",
             on_push_audio),
        Hook("cascade", "kwscascade.cascade:RingBuffer.write", "cascade.ring"),
        Hook("cascade", "kwscascade.cascade:RingBuffer.snapshot", "cascade.ring"),
        Hook("cascade", "kwscascade.cascade:DetectorStream.__init__", None, on_detector_init),
        Hook("cascade", "kwscascade.cascade:DetectorStream.push", detector_span,
             on_detector_push),
        Hook("speaker", "kwscascade.speaker:embed", "speaker.embed"),
        Hook("speaker", "kwscascade.speaker:verify", "speaker.verify",
             counter("speaker.accepts", lambda a, r: int(bool(r.accepted)))),
        Hook("evaluation", "kwscascade.evaluation:DecoderScorer.frame_scores",
             "evaluation.score"),
        Hook("evaluation", "kwscascade.evaluation:PipelineScorer.frame_scores",
             "evaluation.score"),
        Hook("evaluation", "kwscascade.evaluation:accept_event_frames", "evaluation.count"),
        Hook("evaluation", "kwscascade.evaluation:cascade_table", "evaluation.table"),
        Hook("evaluation", "kwscascade.cli:cascade_table", "evaluation.table"),
        Hook("audio_io", "kwscascade.audio_io:read_wav", "audio_io.read",
             counter("audio_io.read.bytes", lambda a, r: r.samples.nbytes)),
        Hook("cli", "kwscascade.cli:main", "cli"),
    ]


def _ratio(num, den):
    # A ratio with no base reads 0; its base is reported beside it.
    return num / den if den else 0.0


# name -> (layer, unit, how the value is read from span totals and counters)
def _metric_table():
    def total(span):
        return lambda t, c: 1000.0 * t.get(span, (0.0, 0.0, 0))[0]

    def own(span):
        return lambda t, c: 1000.0 * t.get(span, (0.0, 0.0, 0))[1]

    def calls(span):
        return lambda t, c: t.get(span, (0.0, 0.0, 0))[2]

    def count(key):
        return lambda t, c: c.get(key, 0.0)

    return {
        "frontend.frames": ("frontend", "count", count("frontend.frames")),
        "frontend.framing.ms": ("frontend", "ms", total("frontend.framing")),
        "frontend.power.self_ms": ("frontend", "ms", own("frontend.power")),
        "frontend.noise.ms": ("frontend", "ms", total("frontend.noise")),
        "frontend.noise.calls": ("frontend", "count", calls("frontend.noise")),
        "frontend.push.self_ms": ("frontend", "ms", own("frontend.push")),
        "fixedpoint.fft.ms": ("fixedpoint", "ms", total("fixedpoint.fft")),
        "fixedpoint.fft.calls": ("fixedpoint", "count", calls("fixedpoint.fft")),
        "fixedpoint.ln.ms": ("fixedpoint", "ms", total("fixedpoint.ln")),
        "fixedpoint.ln.calls": ("fixedpoint", "count", calls("fixedpoint.ln")),
        "quantize.matvec.ms": ("quantize", "ms", total("quantize.matvec")),
        "quantize.matvec.calls": ("quantize", "count", calls("quantize.matvec")),
        "quantize.quantize.ms": ("quantize", "ms", total("quantize.quantize")),
        "quantize.quantize.calls": ("quantize", "count", calls("quantize.quantize")),
        "encoder.forward.self_ms": ("encoder", "ms", own("encoder.forward")),
        "encoder.forward.calls": ("encoder", "count", calls("encoder.forward")),
        "encoder.frames": ("encoder", "count", count("encoder.frames")),
        "decoder.stream.ms": ("decoder", "ms", total("decoder.stream")),
        "decoder.stream.calls": ("decoder", "count", calls("decoder.stream")),
        "decoder.batch.ms": ("decoder", "ms", total("decoder.batch")),
        "decoder.batch.frames": ("decoder", "count", count("decoder.batch.frames")),
        "cascade.push.self_ms": ("cascade", "ms", own("cascade.push")),
        "cascade.ring.ms": ("cascade", "ms", total("cascade.ring")),
        "cascade.stage1.ms": ("cascade", "ms", total("cascade.stage1")),
        "cascade.stage2.ms": ("cascade", "ms", total("cascade.stage2")),
        "cascade.stage1.frames": ("cascade", "count", count("cascade.stage1.frames")),
        "cascade.stage2.frames": ("cascade", "count", count("cascade.stage2.frames")),
        "cascade.stage2.audio_s": (
            "cascade", "s",
            lambda t, c: c.get("cascade.stage2.samples", 0.0) / SAMPLE_RATE_HZ),
        "cascade.wakes": ("cascade", "count", count("cascade.wakes")),
        "cascade.accepts": ("cascade", "count", count("cascade.accepts")),
        "cascade.rejects": ("cascade", "count", count("cascade.rejects")),
        "cascade.accept_ratio": (
            "cascade", "ratio",
            lambda t, c: _ratio(c.get("cascade.accepts", 0), c.get("cascade.wakes", 0))),
        "cascade.decisions_before_trigger": (
            "cascade", "count", count("cascade.decisions_before_trigger")),
        "speaker.embed.ms": ("speaker", "ms", total("speaker.embed")),
        "speaker.embed.calls": ("speaker", "count", calls("speaker.embed")),
        "speaker.verify.ms": ("speaker", "ms", total("speaker.verify")),
        "speaker.accept_ratio": (
            "speaker", "ratio",
            lambda t, c: _ratio(c.get("speaker.accepts", 0),
                                t.get("speaker.verify", (0, 0, 0))[2])),
        "evaluation.score.ms": ("evaluation", "ms", total("evaluation.score")),
        "evaluation.count.ms": ("evaluation", "ms", total("evaluation.count")),
        "evaluation.count.calls": ("evaluation", "count", calls("evaluation.count")),
        "evaluation.table.self_ms": ("evaluation", "ms", own("evaluation.table")),
        "audio_io.read.ms": ("audio_io", "ms", total("audio_io.read")),
        "audio_io.read.bytes": ("audio_io", "B", count("audio_io.read.bytes")),
        "cli.self_ms": ("cli", "ms", own("cli")),
    }


LAYER_METRICS = _metric_table()


def layer_metrics(log, missing_layers):
    """{metric: {"value", "unit"}} for every per-layer metric.

    A layer with a missing hook reads null for all its metrics.
    """
    totals = span_totals(log)
    counters = dict(log.counters)
    out = {}
    for name, (layer, unit, read) in LAYER_METRICS.items():
        value = None if layer in missing_layers else read(totals, counters)
        out[name] = {"value": value, "unit": unit}
    return out
