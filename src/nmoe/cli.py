"""Command-line entry point.

Subcommands:

  generate-data CONFIG OUT_DIR       synthesize the dataset, save it
  partition CONFIG OUT_DIR           write per-client train/test shards
  train CONFIG OUT_DIR               run the full pipeline, write artifacts
  evaluate MODEL CONFIG              re-run inference + metrics on a checkpoint
  baselines CONFIG OUT_FILE          run the three reference systems
  sweep CONFIG OUT_CSV --axis KEY --values V...
                                     one pipeline per JSON value of one
                                     dotted config key
  export-heatmap RESULTS OUT_CSV     heatmap CSV from a results record

Every path is taken as an argument; nothing is read from environment
variables. Failures exit nonzero with the error category on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import config_hash, load_config
from .datasets import save_dataset
from .errors import ConfigError, DataError, FormatError, NmoeError
from .moe import load_model
from .netsim import RoutingLog, export_heatmap, local_ratio
from .pipeline import build_dataset, build_shards, evaluate_model, \
    make_output_dir, run_ablation, run_baselines, run_pipeline, \
    write_sweep_csv


def _output_file(path) -> Path:
    """path as a file to write, checked before any work: its parent is
    made with make_output_dir, and a path that is a directory is a
    ConfigError naming it."""
    path = Path(path)
    make_output_dir(path.parent)
    if path.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    return path


def _cmd_generate_data(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    make_output_dir(args.out_dir)
    data = build_dataset(config)
    save_dataset(data, args.out_dir,
                 meta={"config_hash": config_hash(config),
                       "seed": config.seed})
    print(f"wrote {data.num_samples} samples ({data.num_classes} classes, "
          f"dim {data.dim}) to {args.out_dir}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = make_output_dir(args.out_dir)
    shards = build_shards(config)
    meta = {"config_hash": config_hash(config), "seed": config.seed,
            "tau": config.data.tau}
    for shard in shards:
        base = out / f"client_{shard.client_id:02d}"
        save_dataset(shard.train, base / "train",
                     meta={**meta, "client_id": shard.client_id})
        save_dataset(shard.test, base / "test",
                     meta={**meta, "client_id": shard.client_id})
    print(f"wrote {len(shards)} client shards to {out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.out_dir is not None:
        config = replace(config, output_dir=args.out_dir)
    if config.output_dir is None:
        raise ConfigError("train needs an output directory: pass OUT_DIR "
                          "or set output_dir in the config")
    result = run_pipeline(config, with_baselines=args.baselines)
    ev = result.evaluation
    print(f"pooled accuracy {ev.pooled_accuracy:.4f}  "
          f"macro-F1 {ev.pooled_macro_f1:.4f}  "
          f"local ratio {local_ratio(result.routing):.4f}")
    print(f"artifacts in {config.output_dir}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    model, meta = load_model(args.model)
    recorded = meta.get("config_hash")
    expected = config_hash(config)
    if recorded is not None and recorded != expected:
        raise FormatError(
            f"checkpoint {args.model} was trained under config hash "
            f"{recorded}, but {args.config} hashes to {expected}")
    output = None if args.output is None else _output_file(args.output)
    inference, report = evaluate_model(config, model, build_shards(config),
                                       0)
    payload = {
        "config_hash": expected,
        "evaluation": report.as_dict(),
        "routing": {
            "counts": inference.log.counts.tolist(),
            "bytes_out": inference.log.bytes_out,
            "bytes_back": inference.log.bytes_back,
            "local_ratio": local_ratio(inference.log),
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if output is not None:
        output.write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = _output_file(args.out_file)
    results = run_baselines(config)
    out.write_text(json.dumps(
        {"config_hash": config_hash(config), "baselines": results},
        sort_keys=True, indent=2) + "\n")
    for name, entry in results.items():
        pooled = entry["evaluation"]["pooled"]
        print(f"{name}: accuracy {pooled['accuracy']:.4f}  "
              f"macro-F1 {pooled['macro_f1']:.4f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    try:
        values = [json.loads(v) for v in args.values]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"sweep value {exc.doc!r} is not JSON") from exc
    out = _output_file(args.out_csv)
    rows = run_ablation(config, args.axis, values)
    write_sweep_csv(rows, out)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} grid points ({len(failed)} failed) -> {args.out_csv}")
    return 0


def _cmd_export_heatmap(args: argparse.Namespace) -> int:
    try:
        record = json.loads(Path(args.results).read_text())
    except OSError as exc:
        raise FormatError(f"cannot read results record: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{args.results} is not valid JSON: {exc}") from exc
    try:
        routing = record["routing"]
        counts = np.asarray(routing["counts"])
        ints = {"routing.bytes_out": routing["bytes_out"],
                "routing.bytes_back": routing["bytes_back"],
                "config.k": record["config"]["k"],
                "config.seed": record["config"]["seed"]}
        digest = str(record["config_hash"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{args.results} lacks the routing fields of a results record: "
            f"{exc}") from exc
    if counts.dtype.kind not in "iu":
        raise FormatError(f"{args.results}: routing counts must be integers")
    for name, value in ints.items():
        # a bool is an int too, and a float would be truncated
        if type(value) is not int:
            raise FormatError(
                f"{args.results}: {name} must be an integer, got {value!r}")
    try:
        log = RoutingLog(counts=counts, bytes_out=ints["routing.bytes_out"],
                         bytes_back=ints["routing.bytes_back"])
    except DataError as exc:
        raise FormatError(f"{args.results}: {exc}") from exc
    out = _output_file(args.out_csv)
    manifest = export_heatmap(log, out, k=ints["config.k"],
                              seed=ints["config.seed"], config_hash=digest)
    print(f"wrote {args.out_csv} and {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmoe",
        description="Desk-scale federated mixture-of-experts simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data",
                       help="synthesize the configured dataset")
    p.add_argument("config", help="path to a run config JSON file")
    p.add_argument("out_dir", help="directory for the dataset artifact")
    p.set_defaults(func=_cmd_generate_data)

    p = sub.add_parser("partition", help="write per-client train/test shards")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("train", help="run the three-stage pipeline")
    p.add_argument("config")
    p.add_argument("out_dir", nargs="?", default=None,
                   help="artifact directory (overrides config output_dir)")
    p.add_argument("--baselines", action="store_true",
                   help="also run the reference systems")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate",
                       help="inference + metrics for a saved checkpoint")
    p.add_argument("model", help="model checkpoint JSON")
    p.add_argument("config")
    p.add_argument("--output", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("baselines", help="run the three reference systems")
    p.add_argument("config")
    p.add_argument("out_file", help="where to write the baselines JSON")
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser("sweep", help="one pipeline per grid value")
    p.add_argument("config")
    p.add_argument("out_csv")
    p.add_argument("--axis", required=True, help="config key, as data.tau")
    p.add_argument("--values", required=True, nargs="+",
                   help="JSON values, as 2, 0.5 or '\"fedsc\"'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export-heatmap",
                       help="row-normalized routing CSV from a results record")
    p.add_argument("results", help="results.json from a train run")
    p.add_argument("out_csv")
    p.set_defaults(func=_cmd_export_heatmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NmoeError as exc:
        print(f"error ({exc.category}): {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"error (unexpected): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
