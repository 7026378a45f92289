"""Command-line entry points: prepare, train, eval, predict-triples, audit-inverse, gen-toy.

Every command exits 0 on success; failures print one machine-parseable line
``error<TAB>ExceptionType<TAB>message`` to stderr and exit nonzero. Commands
that produce files also write the fully resolved configuration they ran with
as ``config.resolved`` in the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import sys
import typing
from pathlib import Path

from . import beam, config as cfg, data, evaluation, toygen, training
from .model import load_checkpoint


def _option_table(config_cls, aliases=None) -> dict:
    """Option name -> (type, default), read off a config dataclass's fields.

    An ``int | None`` field is an ``int`` option whose default is None.
    """
    aliases = aliases or {}
    hints = typing.get_type_hints(config_cls)
    table = {}
    for field in dataclasses.fields(config_cls):
        kinds = [t for t in typing.get_args(hints[field.name]) if t is not type(None)]
        table[aliases.get(field.name, field.name)] = (
            kinds[0] if kinds else hints[field.name], field.default
        )
    return table


def _config_from(config_cls, options: dict, aliases=None):
    aliases = aliases or {}
    return config_cls(
        **{f.name: options[aliases.get(f.name, f.name)] for f in dataclasses.fields(config_cls)}
    )


TRAIN_OPTIONS = _option_table(training.TrainConfig, training.TRAIN_ALIASES)
EVAL_OPTIONS = {
    "alpha": (float, evaluation.EnhanceConfig.alpha),
    "pessimistic": (bool, False),
    "workers": (int, 1),
    "dump_ranks": (bool, False),
}
PREDICT_OPTIONS = {**_option_table(beam.BeamConfig), "workers": (int, 1)}


def load_any_dataset(path) -> data.IndexedDataset:
    """Accept a binary cache file or a directory of train/valid/test.txt."""
    path = Path(path)
    if path.is_dir():
        return data.index_dataset(
            data.load_triples(path / "train.txt"),
            data.load_triples(path / "valid.txt"),
            data.load_triples(path / "test.txt"),
        )
    if not path.exists():
        raise FileNotFoundError(f"no such dataset: {path}")
    return data.load_dataset(path)


def _resolve(args, table: dict) -> dict:
    """Resolve one command's options from its table, ``--config`` file, env and flags."""
    return cfg.resolve_options(
        {key: default for key, (_, default) in table.items()},
        {key: kind for key, (kind, _) in table.items()},
        config_file=args.config,
        flags={key: getattr(args, key) for key in table},
    )


def _echo_config(options: dict, out_dir: Path, extra: dict | None = None):
    merged = dict(options)
    if extra:
        merged.update(extra)
    cfg.write_resolved(merged, out_dir / "config.resolved")


def cmd_prepare(args) -> int:
    dataset = data.index_dataset(
        data.load_triples(args.train),
        data.load_triples(args.valid),
        data.load_triples(args.test),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / "dataset.dskg"
    data.save_dataset(dataset, cache_path)
    stats = data.dataset_stats(dataset)
    lines = [f"{key}={value}" for key, value in stats.items()]
    with data.atomic_write(out_dir / "stats.txt") as buf:
        buf.write(("\n".join(lines) + "\n").encode())
    _echo_config(
        {"train": args.train, "valid": args.valid, "test": args.test, "out": str(out_dir)},
        out_dir,
    )
    for line in lines:
        print(line)
    print(f"cache={cache_path}")
    return 0


def cmd_gen_toy(args) -> int:
    out_dir = Path(args.out)
    toy = toygen.generate_toy_kg(
        toygen.ToyConfig(
            num_entities=args.entities,
            num_chains=args.chains,
            num_extra_pairs=args.extra_pairs,
            holdout_fraction=args.holdout,
            seed=args.seed,
        )
    )
    toygen.write_toy_kg(toy, out_dir)
    _echo_config(
        {
            "entities": args.entities,
            "chains": args.chains,
            "extra_pairs": args.extra_pairs,
            "holdout": args.holdout,
            "seed": args.seed,
            "out": str(out_dir),
        },
        out_dir,
    )
    print(f"train={len(toy.train)}\nvalid={len(toy.valid)}\ntest={len(toy.test)}")
    return 0


def cmd_train(args) -> int:
    options = _resolve(args, TRAIN_OPTIONS)
    train_config = _config_from(training.TrainConfig, options, training.TRAIN_ALIASES)
    dataset = load_any_dataset(args.data)
    train_config.resolve_negatives(dataset.vocab.num_entities, dataset.vocab.num_relations)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(options, out_dir, {"data": str(args.data), "out": str(out_dir)})

    state = training.train(
        dataset,
        train_config,
        log_path=out_dir / "train.log",
        checkpoint_path=out_dir / "checkpoint.dskg",
        progress=print if args.verbose else None,
    )
    best = "-" if state.best is None else f"{state.best_val_mrr:.4f}"
    print(f"epochs={state.epoch}\nbest_val_mrr={best}\ncheckpoint={out_dir / 'checkpoint.dskg'}")
    return 0


def _load_for_scoring(args, table: dict, make_config):
    """Resolve the options and build their config, so that a bad value fails
    before the dataset or checkpoint is read; then load both, check that they
    fit, and echo the options into the output directory."""
    options = _resolve(args, table)
    run_config = make_config(options)
    if options["workers"] < 1:
        raise ValueError(f"workers must be >= 1, got {options['workers']}")
    dataset = load_any_dataset(args.data)
    params = load_checkpoint(args.checkpoint)
    if (
        params.num_entities != dataset.vocab.num_entities
        or params.num_relations != dataset.vocab.num_relations
    ):
        raise ValueError(
            "checkpoint/vocabulary mismatch: model has "
            f"{params.num_entities} entities/{params.num_relations} relations, dataset has "
            f"{dataset.vocab.num_entities}/{dataset.vocab.num_relations}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(
        options, out_dir,
        {"checkpoint": str(args.checkpoint), "data": str(args.data), "out": str(out_dir)},
    )
    return options, run_config, dataset, params, out_dir


def cmd_eval(args) -> int:
    options, _, dataset, params, out_dir = _load_for_scoring(
        args, EVAL_OPTIONS, lambda opts: evaluation.EnhanceConfig(alpha=opts["alpha"])
    )
    reports = evaluation.evaluate_variants(
        params, dataset,
        alpha=options["alpha"],
        split=args.split,
        keep_ranks=options["dump_ranks"],
        pessimistic=options["pessimistic"],
        workers=options["workers"],
    )
    for name, report in reports.items():
        enhanced = name.endswith("_enhanced")
        notes = [f"enhancement={'on (alpha=%g)' % options['alpha'] if enhanced else 'off'}"]
        text = evaluation.format_report(report, name, notes)
        with data.atomic_write(out_dir / f"{name}.report") as buf:
            buf.write(text.encode())
        if options["dump_ranks"]:
            evaluation.write_ranks_dump(out_dir / f"{name}.ranks.tsv", dataset, args.split, report)
        print(f"{name}: hits@1={report.hits1:.2f} hits@10={report.hits10:.2f} "
              f"mrr={report.mrr:.2f} mr={report.mr:.2f}")
    return 0


def cmd_predict_triples(args) -> int:
    options, beam_config, dataset, params, out_dir = _load_for_scoring(
        args, PREDICT_OPTIONS, lambda opts: _config_from(beam.BeamConfig, opts)
    )
    pairs = beam.stage1_pairs(params, beam_config, workers=options["workers"])
    output = beam.stage2_triples(params, pairs, beam_config, workers=options["workers"])
    curve = beam.precision_curve(
        output, dataset,
        canonicalize=beam_config.canonicalize,
        max_points=beam_config.curve_points,
    )
    beam.write_predictions(out_dir / "predictions.tsv", output, dataset.vocab)
    beam.write_curve(out_dir / "curve.tsv", curve)
    final = curve[-1] if curve else None
    if final is not None and final.precision is not None:
        print(f"triples={len(output)}\nfinal_precision={final.precision:.4f}")
    else:
        print(f"triples={len(output)}\nfinal_precision=NA")
    return 0


def cmd_audit_inverse(args) -> int:
    dataset = load_any_dataset(args.data)
    rows = data.audit_inverse_pairs(dataset)
    if args.out:
        text = io.StringIO()
        data.write_inverse_audit(rows, dataset.vocab, text)
        with data.atomic_write(args.out) as buf:
            buf.write(text.getvalue().encode())
        print(f"pairs={len(rows)}\nout={args.out}")
    else:
        data.write_inverse_audit(rows, dataset.vocab, sys.stdout)
    return 0


# Help text for the option flags whose name does not say enough.
_HELP = {
    "arch": "one of " + ", ".join(training.ARCH_CHOICES),
    "precision": "one of " + ", ".join(training.PRECISION_CHOICES),
    "relation_loss": "include the relation-prediction loss term",
    "shared_negatives": "share one negative set across each batch",
    "sampling_correction": "subtract log sampling probabilities from logits",
    "pessimistic": "count score ties against the gold label",
    "dump_ranks": "write per-query rank dumps",
    "canonicalize": "fold reverse-relation outputs onto their forward form",
}


def _add_options(parser, table: dict):
    """One ``--key-with-dashes`` flag per option, kept as the raw string (or a
    bool switch): ``_resolve`` parses it the way it parses file and env values."""
    for key, (kind, _) in table.items():
        action = argparse.BooleanOptionalAction if kind is bool else "store"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, action=action,
                            default=None, help=_HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dskg",
        description="Sequential knowledge-graph completion: train, evaluate, predict triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="index triple files and write a binary dataset cache")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("gen-toy", help="generate a deterministic synthetic KG")
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--chains", type=int, default=250)
    p.add_argument("--extra-pairs", type=int, default=250)
    p.add_argument("--holdout", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_gen_toy)

    p = sub.add_parser("train", help="train a model and keep the best validation checkpoint")
    p.add_argument("--data", required=True, help="dataset cache file or directory of .txt splits")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--verbose", action="store_true")
    _add_options(p, TRAIN_OPTIONS)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="write the four ranking reports for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    _add_options(p, EVAL_OPTIONS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict-triples", help="two-stage beam search over whole triples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_options(p, PREDICT_OPTIONS)
    p.set_defaults(fn=cmd_predict_triples)

    p = sub.add_parser("audit-inverse", help="report train/test swap-overlap per relation pair")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="output TSV path (default: stdout)")
    p.set_defaults(fn=cmd_audit_inverse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - single surface for the error contract
        message = str(exc).replace("\t", " ").replace("\n", " ")
        print(f"error\t{type(exc).__name__}\t{message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
