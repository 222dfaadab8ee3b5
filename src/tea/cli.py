"""Command-line front end: prepare, train, eval, ablate.

Setting precedence, lowest to highest: built-in defaults < config file
(`key = value` lines) < TEA_SEED environment variable (seed only) < command
line flags. Exit codes: 0 success, 2 missing/invalid input, 3 empty
pipeline output, 4 numerical failure during training or evaluation, 5
incompatible artifact.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .data import EmptyDatasetError, ParseError, PreparedDataset, prepare_dataset
from .evaluation import EvalConfig, evaluate_all, write_report
from .objective import NonFiniteScoreError
from .params import (IncompatibleCheckpointError, VARIANTS, load_checkpoint,
                     save_checkpoint)
from .training import NumericalError, TrainConfig, train, write_curve_csv

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_EMPTY_OUTPUT = 3
EXIT_NUMERICAL = 4
EXIT_INCOMPATIBLE = 5

_EPILOG = ("Setting precedence, lowest to highest: defaults < --config file "
           "(key = value lines) < TEA_SEED environment variable (seed only) "
           "< command-line flags.")


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(path, line_no, "expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


_TRAIN_FIELDS = {
    "d": int, "batch_size": int, "p_drop": float, "gamma": float, "n_s": int,
    "l_s": int, "lr": float, "max_epochs": int, "patience": int,
    "seed": int, "variant": str, "all_steps": lambda s: s.lower() in ("1", "true", "yes"),
    "clip_norm": float,
}


def _effective_train_config(args) -> TrainConfig:
    cfg = TrainConfig()
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key in _TRAIN_FIELDS:
                setattr(cfg, key, _TRAIN_FIELDS[key](raw))
    env_seed = os.environ.get("TEA_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    for key in _TRAIN_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    return cfg


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--d", type=int, help="embedding dimension")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--p-drop", dest="p_drop", type=float)
    p.add_argument("--gamma", type=float, help="L2 penalty weight")
    p.add_argument("--ns", dest="n_s", type=int, help="negatives per step")
    p.add_argument("--lr", type=float)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--clip-norm", dest="clip_norm", type=float)
    p.add_argument("--final-step-only", dest="all_steps", action="store_const",
                   const=False, default=None,
                   help="train on each user's final step only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tea", epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", epilog=_EPILOG,
                       help="filter raw logs and build the training corpus")
    p.add_argument("--interactions", required=True)
    p.add_argument("--social", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-actions", type=int, default=5)
    p.add_argument("--rating-threshold", type=float, default=3.0)
    p.add_argument("--tau-days", type=int, default=60)
    p.add_argument("--ls", type=int, default=50)
    p.add_argument("--ln", type=int, default=20)
    p.add_argument("--walk-cap", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", epilog=_EPILOG, help="train one variant")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS), default=None)
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("eval", epilog=_EPILOG, help="rank held-out items")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--k", default="5,10,20", help="comma-separated cutoffs")
    p.add_argument("--n-neg", dest="n_neg", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory (default: data dir)")

    p = sub.add_parser("ablate", epilog=_EPILOG,
                       help="train and evaluate a variant/seed grid")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", default="tea-s,tea-a,tea-rs,tea-ra")
    p.add_argument("--seeds", default="0")
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--n-neg", dest="n_neg", type=int, default=100)
    _add_train_flags(p)
    return parser


def _require_file(path) -> None:
    if not os.path.exists(path):
        raise FileNotFoundError(path)


def cmd_prepare(args) -> int:
    for path in (args.interactions, args.social):
        _require_file(path)
    ds = prepare_dataset(args.interactions, args.social,
                         min_actions=args.min_actions,
                         rating_threshold=args.rating_threshold,
                         tau_days=args.tau_days, l_s=args.ls, l_n=args.ln,
                         walk_cap=args.walk_cap, seed=args.seed)
    ds.save(args.out)
    stats = ds.stats()
    stats["config"] = ds.config
    with open(os.path.join(args.out, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"prepared {stats['users']} users, {stats['items']} items, "
          f"{stats['interactions']} interactions, "
          f"{stats['social_links']} social links -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    _require_file(os.path.join(args.data, "dataset.json"))
    ds = PreparedDataset.load(args.data)
    config = _effective_train_config(args)
    if args.variant is not None:
        config.variant = args.variant
    os.makedirs(args.out, exist_ok=True)
    walks_on = VARIANTS[config.variant][1]
    print(f"training variant {config.variant} (seed {config.seed}); "
          f"walk aggregation: {'enabled' if walks_on else 'disabled'}")
    result = train(ds, config, log=print)
    ckpt_path = os.path.join(args.out, "checkpoint.tea")
    save_checkpoint(ckpt_path, result.params, config.to_dict(),
                    result.best_epoch)
    write_curve_csv(os.path.join(args.out, "curve.csv"), result.curve, config,
                    extra={"best_epoch": result.best_epoch})
    print(f"wrote {ckpt_path} (best epoch {result.best_epoch})")
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_file(os.path.join(args.data, "dataset.json"))
    _require_file(args.checkpoint)
    ds = PreparedDataset.load(args.data)
    params, train_config, epoch = load_checkpoint(args.checkpoint)
    if params.n_users != ds.n_users or params.n_items != ds.n_items:
        raise IncompatibleCheckpointError(
            f"checkpoint is for {params.n_users} users x {params.n_items} items, "
            f"dataset has {ds.n_users} x {ds.n_items}")
    ks = tuple(int(x) for x in str(args.k).split(",") if x)
    seed = args.seed if args.seed is not None else int(train_config.get("seed", 0))
    cfg = EvalConfig(ks=ks, n_neg=args.n_neg, seed=seed)
    report = evaluate_all(params, ds, args.split, cfg)
    out_dir = args.out or args.data
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"report_{args.split}.json")
    csv_path = os.path.join(out_dir, f"ranks_{args.split}.csv")
    echo = {"train_config": train_config, "checkpoint_epoch": epoch,
            "n_neg": args.n_neg, "seed": seed, "ks": list(ks)}
    write_report(report, json_path, csv_path, config_echo=echo)
    summary = " ".join(f"HR@{k}={report.hr[k]:.4f} NDCG@{k}={report.ndcg[k]:.4f}"
                       for k in ks)
    print(f"{args.split}: {summary}")
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    _require_file(os.path.join(args.data, "dataset.json"))
    ds = PreparedDataset.load(args.data)
    variants = [v for v in args.variants.split(",") if v]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    os.makedirs(args.out, exist_ok=True)
    ks = (5, 10, 20)
    rows = []
    for variant in variants:
        for seed in seeds:
            config = _effective_train_config(args)
            config.variant = variant
            config.seed = seed
            result = train(ds, config)
            report = evaluate_all(result.params, ds, args.split,
                                  EvalConfig(ks=ks, n_neg=args.n_neg, seed=seed))
            row = {"variant": variant, "seed": seed}
            for k in ks:
                row[f"HR@{k}"] = report.hr[k]
                row[f"NDCG@{k}"] = report.ndcg[k]
            rows.append(row)
            print(f"{variant} seed {seed}: HR@10={report.hr[10]:.4f} "
                  f"NDCG@10={report.ndcg[10]:.4f}")
    metric_cols = [f"{m}@{k}" for k in ks for m in ("HR", "NDCG")]
    table_path = os.path.join(args.out, "ablate.csv")
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        echo = _effective_train_config(args).to_dict()
        for key in sorted(echo):
            if key in ("variant", "seed"):
                continue
            fh.write(f"# {key} = {echo[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed"] + metric_cols)
        for row in rows:
            writer.writerow([row["variant"], row["seed"]]
                            + [f"{row[c]:.6f}" for c in metric_cols])
        for variant in variants:
            vals = [r for r in rows if r["variant"] == variant]
            for agg_name, agg in (("mean", np.mean), ("std", np.std)):
                writer.writerow(
                    [variant, agg_name]
                    + [f"{agg([r[c] for r in vals]):.6f}" for c in metric_cols])
    print(f"wrote {table_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"prepare": cmd_prepare, "train": cmd_train,
                "eval": cmd_eval, "ablate": cmd_ablate}
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except EmptyDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_OUTPUT
    except (NumericalError, NonFiniteScoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IncompatibleCheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
