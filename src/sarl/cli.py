"""Command-line entry points.

Verbs:
  gen-data          write a synthetic train/test pair to disk
  train             optimize a model and write checkpoint + reports
  eval              score a checkpoint against a dataset
  export-attention  dump one class's map and attention columns as PGM
  gradcheck         run the finite-difference suite (nonzero exit on fail)

Every train flag mirrors a TrainConfig field; a flag given on the
command line overrides the same key from --config. Numeric flag values
of every verb follow the config-file rules of
:func:`sarl.data.parse_value`. The effective config is echoed at the top
of the run log, which is opened by its first line, so a config that
fails validation leaves no run.log behind. A refused input or a failed
file access ends any verb with one ``sarl <verb>: <reason>`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .data import (SyntheticConfig, generate, load_dataset, parse_value,
                   save_dataset, stats, write_manifest)
from .head import load_checkpoint
from .metrics import format_report, report_entries, write_predictions
from .training import (TrainConfig, TrainingError, config_from_file, evaluate,
                       export_attention, synthetic_config, train)


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_config_flags(parser, config_cls):
    """One optional flag per dataclass field, default None (= not given)."""
    for f in fields(config_cls):
        if isinstance(f.default, bool):
            parser.add_argument(_flag(f.name), dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction)
        else:
            # kept as text: _flag_values parses it by the field's type
            parser.add_argument(_flag(f.name), dest=f.name, default=None)


def _flag_values(args, config_cls):
    """Field name -> value of every given flag; a bad value is a
    ValueError."""
    values = {}
    for f in fields(config_cls):
        value = getattr(args, f.name, None)
        if isinstance(value, str):
            value = parse_value(_flag(f.name), value, type(f.default))
        if value is not None:
            values[f.name] = value
    return values


def cmd_gen_data(args):
    cfg = SyntheticConfig(**_flag_values(args, SyntheticConfig))
    train_ds, test_ds = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(os.path.join(args.out, "train.bin"), train_ds)
    save_dataset(os.path.join(args.out, "test.bin"), test_ds)
    entries = {f.name: getattr(cfg, f.name) for f in fields(SyntheticConfig)}
    write_manifest(os.path.join(args.out, "data.cfg"), entries)
    for tag, ds in (("train", train_ds), ("test", test_ds)):
        st = stats(ds)
        print(f"{tag}: {st.n_samples} samples, {st.num_classes} classes, "
              f"cardinality {st.cardinality:.3f}")
    return 0


def cmd_train(args):
    if (args.train_data is None) != (args.test_data is None):
        raise ValueError("give both --train-data and --test-data, or neither")
    flags = _flag_values(args, TrainConfig)
    if args.config is not None:  # checked with the flags, which win
        cfg = config_from_file(args.config, overrides=flags)
    else:
        cfg = TrainConfig(**flags)
    if args.train_data is not None:
        train_ds = load_dataset(args.train_data)
        test_ds = load_dataset(args.test_data)
    else:
        train_ds, test_ds = generate(synthetic_config(cfg))

    opened = []

    def say(line):
        if not opened:  # train logs only once the model config checks out
            os.makedirs(args.out, exist_ok=True)
            opened.append(open(os.path.join(args.out, "run.log"), "w"))
        opened[0].write(line + "\n")
        if not args.quiet:
            print(line)

    try:
        train(cfg, train_ds, test_ds, log=say, out_dir=args.out)
    finally:
        for fh in opened:
            fh.close()
    return 0


def cmd_eval(args):
    threshold = parse_value("--threshold", args.threshold, float)
    top_k = parse_value("--top-k", args.top_k, int)
    model = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    report, preds = evaluate(model, ds, threshold=threshold, top_k=top_k)
    print(format_report(report))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        write_predictions(os.path.join(args.out, "predictions.txt"), preds)
        write_manifest(os.path.join(args.out, "metrics.txt"),
                       report_entries(report))
    return 0


def cmd_export_attention(args):
    index = parse_value("--index", args.index, int)
    class_id = parse_value("--class-id", args.class_id, int)
    model = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    if index >= len(ds):
        raise ValueError(f"sample index {index} outside dataset of {len(ds)}")
    export_attention(model, ds.payload[index], class_id, args.out_map,
                     args.out_attn)
    print(f"wrote {args.out_map} and {args.out_attn}")
    return 0


def cmd_gradcheck(args):
    from .gradcheck import run_suite
    ok = run_suite(verbose=not args.quiet)
    if not ok:
        print("gradcheck FAILED", file=sys.stderr)
        return 1
    print("gradcheck ok")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sarl",
        description="semantic-aware representation learning trainer")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset pair")
    p.add_argument("--out", required=True)
    _add_config_flags(p, SyntheticConfig)
    p.set_defaults(run=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--train-data", help="dataset file (default: synthetic)")
    p.add_argument("--test-data")
    p.add_argument("--quiet", action="store_true")
    _add_config_flags(p, TrainConfig)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="where to write predictions and metrics")
    p.add_argument("--threshold", default="0.5")
    p.add_argument("--top-k", default="3")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("export-attention",
                       help="write class map and attention as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", default="0")
    p.add_argument("--class-id", required=True)
    p.add_argument("--out-map", required=True)
    p.add_argument("--out-attn", required=True)
    p.set_defaults(run=cmd_export_attention)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(run=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, TrainingError, OSError) as exc:
        raise SystemExit(f"sarl {args.verb}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
