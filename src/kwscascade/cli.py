"""Command-line entry point: one executable, one subcommand per task.

stdout carries machine-readable output only (JSON lines or CSV); anything
meant for humans goes to stderr. Exit codes: 0 success, 1 negative answer
where a yes/no was asked (verify rejected), 2 usage or configuration
error, 3 memory budget violation.
"""

import argparse
import dataclasses
import json
import sys

from . import audio_io, speaker, synthetic
from .cascade import (
    BudgetViolationError,
    Cascade,
    CascadeConfig,
    DetectorStream,
    MemoryBudget,
    check_model,
    check_profile,
    enforce_budget,
    stage2_pass,
)
from .decoder import DecoderConfig, StreamingDecoder
from .encoder import (
    ModelKind,
    ModelParseError,
    build_model_from_description,
    load_model,
    serialize_model,
)
from .evaluation import PipelineScorer, cascade_table
from .frontend import ConfigError, FrontendConfig
from .quantize import AccumMode

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The config file's sections. A section's keys are the fields its dataclass
# declares as keys (see frontend.setting), and each key is parsed by its
# field's type; the dataclass checks the values.
SECTIONS = {
    "frontend": FrontendConfig,
    "stage1": DecoderConfig,
    "stage2": DecoderConfig,
    "cascade": CascadeConfig,
    "budget": MemoryBudget,
}


_SWITCH = {"1": True, "true": True, "on": True, "yes": True,
           "0": False, "false": False, "off": False, "no": False}


def _switch(text):
    try:
        return _SWITCH[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1/true/on/yes or 0/false/off/no, got {text!r}") from None


def _config_keys():
    keys = {}
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            key = f.metadata.get("key")
            if key:
                parse = _switch if f.type is bool else f.type
                keys[f"{section}.{f.name if key is True else key}"] = (section, f.name, parse)
    # cascade_table arguments, which it checks itself
    keys["eval.refractory_ms"] = ("eval", "refractory_ms", float)
    keys["eval.hit_window_ms"] = ("eval", "hit_window_ms", float)
    return keys


# Every config-file key -> (section, the field or argument it sets, parser).
# Unknown keys are hard errors so typos surface instead of silently using
# defaults.
CONFIG_KEYS = _config_keys()


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def load_config_file(path):
    """Parse 'key = value' lines into {section: {name: value}}; unknown keys are errors.

    Every section is present, empty when the file sets none of its keys or
    when there is no file (``path`` None).
    """
    values = {section: {} for section, _, _ in CONFIG_KEYS.values()}
    if path is None:
        return values
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            section, name, parse = CONFIG_KEYS[key]
            try:
                values[section][name] = parse(value)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _read_model(path):
    with open(path, "rb") as fh:
        return load_model(fh.read())


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_quantize_model(args):
    with open(args.input) as fh:
        model = build_model_from_description(fh.read())
    data = serialize_model(model)
    with open(args.output, "wb") as fh:
        fh.write(data)
    report = {
        "output": args.output,
        "byte_size": len(data),
        "kind": model.kind.name.lower(),
        "layers": [
            {
                "in_dim": layer.in_dim,
                "out_dim": layer.out_dim,
                "weight_min": layer.weights.params.min_val,
                "weight_max": layer.weights.params.max_val,
                "weight_scale": layer.weights.params.scale,
                "weight_zero_point": layer.weights.params.zero_point,
                "input_min": layer.input_params.min_val,
                "input_max": layer.input_params.max_val,
            }
            for layer in model.layers
        ],
    }
    _emit(report)
    return EXIT_OK


def cmd_score(args):
    cfg = load_config_file(args.config)
    csv = args.posteriors.endswith(".csv")
    with open(args.posteriors, "r" if csv else "rb") as fh:
        read = audio_io.posterior_csv_blocks if csv else audio_io.posterior_blocks
        num_units, blocks = read(fh)  # checked before any output
        dec = StreamingDecoder(DecoderConfig(num_units, **cfg["stage1"]))
        sys.stdout.write("record,frame,score\n")
        last = None  # the last non-empty push, for the alignment line
        for block in blocks:
            hits = dec.push(block[:, :num_units])
            sys.stdout.write("".join(f"score,{frame},{score:.9f}\n" for frame, score
                                     in enumerate(hits.scores.tolist(), hits.first_frame)))
            last = hits if len(hits) else last
    if last is not None:
        _, hyp = last[-1]
        cells = ",".join(str(a) for a in hyp.alignment)
        sys.stdout.write(f"alignment,{hyp.end_frame},{cells}\n")
    return EXIT_OK


def cmd_run_cascade(args):
    if bool(args.speaker_model) != bool(args.speaker_profile):
        raise CliError("--speaker-model and --speaker-profile go together")
    cfg = load_config_file(args.config)
    stage1 = _read_model(args.stage1)
    stage2 = _read_model(args.stage2)
    frontend = FrontendConfig(**cfg["frontend"])
    cascade_cfg = CascadeConfig(
        frontend=frontend,
        stage1_decoder=DecoderConfig(stage1.num_units, **cfg["stage1"]),
        stage2_decoder=DecoderConfig(stage2.num_units, **cfg["stage2"]),
        budget=MemoryBudget(**cfg["budget"]),
        **cfg["cascade"],
    )
    speaker_model = profile = None
    if args.speaker_model:
        speaker_model = _read_model(args.speaker_model)
        with open(args.speaker_profile, "rb") as fh:
            profile = speaker.load_profile(fh.read())
    cascade = Cascade(cascade_cfg, stage1, stage2, speaker_model, profile)
    source = sys.stdin.buffer if args.input == "-" else args.input
    # printed once the input ends, so a malformed input leaves stdout empty
    events = [event for block in audio_io.read_pcm(source)
              for event in cascade.push_audio(block)]
    for event in events + cascade.finish():
        _emit(event.to_dict())
    return EXIT_OK


def _speaker_models(args, cfg):
    """Stage-2 and embedding models, frontend and stage-2 decoder, checked before any audio."""
    stage2 = _read_model(args.stage2)
    embedding = _read_model(args.embedding_model)
    frontend = FrontendConfig(**cfg["frontend"])
    check_model(frontend, stage2, "stage-2")
    check_model(frontend, embedding, "speaker", ModelKind.EMBEDDING)
    return stage2, embedding, frontend, DecoderConfig(stage2.num_units, **cfg["stage2"])


def _segment_signature(wav_path, stage2_model, embedding_model, frontend, decoder_cfg):
    """Embed the segment of stage 2's first accept in the file, as the cascade does."""
    det = DetectorStream(frontend, stage2_model, decoder_cfg,
                         AccumMode.FLOAT, keep_features=True)
    accept = stage2_pass(det, audio_io.read_wav(wav_path))
    if accept is None:
        raise CliError(f"{wav_path}: stage 2 never reaches its threshold")
    return speaker.embed(accept[2], embedding_model)


def cmd_enroll(args):
    stage2, embedding, frontend, decoder_cfg = _speaker_models(args, load_config_file(args.config))
    signatures = [_segment_signature(path, stage2, embedding, frontend, decoder_cfg)
                  for path in args.wavs]
    # speaker.enroll states the default threshold
    profile = speaker.enroll(signatures, *[] if args.threshold is None else [args.threshold])
    with open(args.output, "wb") as fh:
        fh.write(speaker.serialize_profile(profile))
    _emit({
        "output": args.output,
        "dim": len(profile.signature.vector),
        "num_enrollment_utterances": profile.num_enrollment_utterances,
        "threshold": profile.threshold,
    })
    return EXIT_OK


def cmd_verify(args):
    stage2, embedding, frontend, decoder_cfg = _speaker_models(args, load_config_file(args.config))
    with open(args.profile, "rb") as fh:
        profile = speaker.load_profile(fh.read())
    check_profile(profile, embedding)
    signature = _segment_signature(args.wav, stage2, embedding, frontend, decoder_cfg)
    result = speaker.verify(signature, profile)
    _emit({"score": round(result.score, 6), "accepted": result.accepted})
    return EXIT_OK if result.accepted else EXIT_NEGATIVE


def _thresholds(text):
    """The --thresholds list, checked before any model or audio is read."""
    try:
        thresholds = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"--thresholds must be comma-separated numbers, got {text!r}") from None
    if sorted(thresholds) != thresholds:
        raise CliError("--thresholds must be ascending")
    return thresholds


def cmd_evaluate(args):
    thresholds = _thresholds(args.thresholds)
    cfg = load_config_file(args.config)
    stage1_model = _read_model(args.stage1)
    stage2_model = _read_model(args.stage2)
    frontend = FrontendConfig(**cfg["frontend"])
    enforce_budget(MemoryBudget(**cfg["budget"]), stage1_model)
    stage1 = PipelineScorer(frontend, stage1_model,
                            DecoderConfig(stage1_model.num_units, **cfg["stage1"]),
                            AccumMode.FIXED)
    stage2_decoder = DecoderConfig(stage2_model.num_units, **cfg["stage2"])
    stage2 = PipelineScorer(frontend, stage2_model, stage2_decoder, AccumMode.FLOAT)
    corpus = synthetic.load_audio_corpus(args.manifest)
    table = cascade_table(
        stage1, stage2, corpus, thresholds,
        stage2_threshold=(stage2_decoder.threshold if args.stage2_threshold is None
                          else args.stage2_threshold),
        **cfg["eval"],
    )
    sys.stdout.write(table.render_csv() + "\n")
    sys.stderr.write(table.render_text() + "\n")
    return EXIT_OK


def cmd_gen_corpus(args):
    manifest = synthetic.generate_audio_corpus(
        seed=args.seed,
        out_dir=args.out_dir,
        num_units=args.num_units,
        num_positives=args.positives,
        num_negatives=args.negatives,
        negative_seconds=args.negative_seconds,
    )
    _emit({"manifest": manifest, "seed": args.seed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _config_epilog():
    keys = "\n".join(f"  {key}" for key in CONFIG_KEYS)
    return "config file keys (key = value per line, unknown keys are errors):\n" + keys


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kwscascade",
        description="Two-stage keyword-spotting cascade tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = _config_epilog()
    fmt = argparse.RawDescriptionHelpFormatter

    p = sub.add_parser("quantize-model",
                       help="quantize a float-weight text model description to binary")
    p.add_argument("input", help="text model description")
    p.add_argument("output", help="binary model path")
    p.set_defaults(func=cmd_quantize_model)

    p = sub.add_parser("score", help="decode a posterior stream to per-frame scores",
                       epilog=epilog, formatter_class=fmt)
    p.add_argument("--posteriors", required=True,
                   help="binary posterior stream, or CSV if the name ends in .csv")
    p.add_argument("--config", help="config file (key = value)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("run-cascade", help="run the two-stage cascade over audio",
                       epilog=epilog, formatter_class=fmt)
    p.add_argument("--stage1", required=True, help="stage-1 model (budget enforced)")
    p.add_argument("--stage2", required=True, help="stage-2 model")
    p.add_argument("--speaker-profile", help="enrolled profile file")
    p.add_argument("--speaker-model", help="embedding model for verification")
    p.add_argument("--input", required=True, help="WAV path, or - for raw PCM on stdin")
    p.add_argument("--config", help="config file (key = value)")
    p.set_defaults(func=cmd_run_cascade)

    p = sub.add_parser("enroll", help="build a speaker profile from keyword recordings",
                       epilog=epilog, formatter_class=fmt)
    p.add_argument("wavs", nargs="+", help="enrollment WAV files")
    p.add_argument("--stage2", required=True, help="stage-2 model for segmentation")
    p.add_argument("--embedding-model", required=True)
    p.add_argument("--out", dest="output", required=True, help="profile output path")
    p.add_argument("--threshold", type=float)
    p.add_argument("--config", help="config file (key = value)")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("verify", help="verify a recording against a profile",
                       epilog=epilog, formatter_class=fmt)
    p.add_argument("wav")
    p.add_argument("--profile", required=True)
    p.add_argument("--stage2", required=True, help="stage-2 model for segmentation")
    p.add_argument("--embedding-model", required=True)
    p.add_argument("--config", help="config file (key = value)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="cascade operating-point table over a corpus",
                       epilog=epilog, formatter_class=fmt)
    p.add_argument("--manifest", required=True, help="corpus manifest file")
    p.add_argument("--stage1", required=True)
    p.add_argument("--stage2", required=True)
    p.add_argument("--thresholds", required=True,
                   help="comma-separated ascending stage-1 thresholds")
    p.add_argument("--stage2-threshold", type=float,
                   help="stage-2 accept threshold (default: the config's stage2.threshold)")
    p.add_argument("--config", help="config file (key = value)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-corpus", help="generate a seeded synthetic audio corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--num-units", type=int, default=3)
    p.add_argument("--positives", type=int, default=5)
    p.add_argument("--negatives", type=int, default=2)
    p.add_argument("--negative-seconds", type=float, default=20.0)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetViolationError as exc:
        sys.stderr.write(f"error: budget: {exc}\n")
        return EXIT_BUDGET
    except CliError as exc:
        sys.stderr.write(f"error: usage: {exc}\n")
        return exc.code
    except (ConfigError, ModelParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
