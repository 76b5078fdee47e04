"""Command-line entry point: train / eval / pairs / gradcheck / ablate.

Exit codes: 0 success, 1 runtime or numeric error, 2 usage error.  Every run
writes its fully resolved configuration as JSON next to its outputs, and a
directory holds one command's record.  All randomness flows from --seed
(default 0, never wall clock).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .atomic import atomic_open
from .dataset import (PROTOCOLS, SPLITS, export_pairs_csv, generate_pairs, merge_weak_labels,
                      parse_manifest)
from .evaluator import SCORE_MODES, metrics_report, roc_curve, run_ablation, score_pairs
from .errors import ConfigError, NumericError, check_real
from .gradcheck import grad_check
from .losses import LossConfig
from .network import DEFAULT_FREEZE, NetworkSpec, build_network, freeze_prefix, load_params
from .tensor import Graph, Tensor
from .trainer import SETTINGS, TrainConfig, apply_settings, pair_batch_loss, settings_of, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="siamverify",
                                     description="Siamese face-verification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--web-manifest")
    p_train.add_argument("--profile", default="tiny", choices=sorted(DEFAULT_FREEZE))
    p_train.add_argument("--out", required=True)
    _add_settings(p_train, [k for k, kind in SETTINGS.items() if kind is not bool])
    p_train.add_argument("--no-balance", dest="class_balance", action="store_false", default=None)
    p_train.add_argument("--no-lr-loss", dest="enable_lr", action="store_false", default=None)
    p_train.add_argument("--no-bce-loss", dest="enable_lbce", action="store_false", default=None)
    p_train.add_argument("--no-augment", dest="augment", action="store_false", default=None)
    p_train.add_argument("--config", help="JSON object of settings; flags override it")

    p_eval = sub.add_parser("eval", help="score pairs with a trained checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--mode", default="head", choices=SCORE_MODES)
    p_eval.add_argument("--split", default=None, choices=SPLITS)
    p_eval.add_argument("--out", required=True)

    p_pairs = sub.add_parser("pairs", help="export the pair list for a protocol")
    p_pairs.add_argument("--manifest", required=True)
    p_pairs.add_argument("--protocol", required=True, choices=PROTOCOLS)
    p_pairs.add_argument("--out", required=True)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p_gc.add_argument("--profile", default="tiny", choices=sorted(DEFAULT_FREEZE))
    p_gc.add_argument("--tol", type=float, default=1e-4)
    p_gc.add_argument("--eps", type=float)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--max-coords", type=int, default=20,
                      help="coordinates sampled per parameter tensor")

    p_abl = sub.add_parser("ablate", help="run a training/eval grid")
    p_abl.add_argument("--grid", required=True, help="JSON list of grid entries")
    p_abl.add_argument("--manifest", required=True)
    p_abl.add_argument("--web-manifest")
    p_abl.add_argument("--profile", default="tiny", choices=sorted(DEFAULT_FREEZE))
    _add_settings(p_abl, ("epochs", "seed"))
    p_abl.add_argument("--out", required=True)
    return parser


def _add_settings(parser, names) -> None:
    """A ``--<name>`` flag for each setting in ``names``, of the type ``SETTINGS`` gives."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=SETTINGS[name])


def _read_json(path, kind: type):
    """The JSON value in file ``path``, which must be a ``kind`` (dict or list).

    Undecodable bytes, bad JSON, nesting too deep to parse and a value of
    another type are each a ``ConfigError`` that names the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            value = json.load(f)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise ConfigError(f"{path} must hold a JSON {'object' if kind is dict else 'list'}")
    return value


def _given(args, keys) -> dict:
    """The ``keys`` whose flag is given; a key the command has no flag for is left out."""
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _record(args, **extras) -> dict:
    """The parsed command, less its setting flags and ``--config``, plus ``extras``."""
    return {**{k: v for k, v in vars(args).items() if k not in SETTINGS and k != "config"},
            **extras}


def _check_record(out_dir, command: str) -> None:
    """Refuse a directory that holds another command's record."""
    path = os.path.join(out_dir, "resolved_config.json")
    if os.path.exists(path) and _read_json(path, dict).get("command") != command:
        raise ConfigError(f"{path} is not a {command!r} record; "
                          "give each command its own output directory")


def _write_config(out_dir, config: dict) -> None:
    """Write ``config``, refusing to replace another command's record."""
    _check_record(out_dir, config["command"])
    path = os.path.join(out_dir, "resolved_config.json")
    os.makedirs(out_dir, exist_ok=True)
    with atomic_open(path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2, sort_keys=True)


def _cmd_train(args) -> int:
    spec = NetworkSpec.profile(args.profile)
    cfg = apply_settings(TrainConfig(), {"freeze_k": DEFAULT_FREEZE[args.profile],
                                         **(_read_json(args.config, dict) if args.config else {}),
                                         **_given(args, SETTINGS)})
    records = [r for r in parse_manifest(args.manifest) if r.split == "train"]
    if args.web_manifest:
        records = merge_weak_labels(records, parse_manifest(args.web_manifest))
    pairs = generate_pairs(records, "overall")
    params = build_network(spec, seed=cfg.seed)
    if cfg.freeze_k is not None:  # a prefix past the profile's convs fails before any write
        freeze_prefix(params, cfg.freeze_k)

    _write_config(args.out, _record(args, protocol="overall", n_records=len(records),
                                    n_pairs=len(pairs), **settings_of(cfg)))
    _, log, checkpoints = train(params, pairs, cfg, out_dir=args.out)
    log.write_csv(os.path.join(args.out, "trainlog.csv"))
    print(f"trained {cfg.epochs} epochs on {len(pairs)} pairs; "
          f"checkpoints: {', '.join(checkpoints)}")
    return 0


def _cmd_eval(args) -> int:
    """Score and render first, then write: a failing eval leaves the directory as it was."""
    _check_record(args.out, "eval")
    params = load_params(args.checkpoint)
    records = [r for r in parse_manifest(args.manifest) if args.split in (None, r.split)]
    pairs = generate_pairs(records, "overall")
    scores = score_pairs(params, pairs, mode=args.mode)
    report = json.dumps(metrics_report(scores, args.mode), indent=2)
    roc = roc_curve(scores)
    _write_config(args.out, _record(args, protocol="overall", n_pairs=len(pairs)))
    roc.write_csv(os.path.join(args.out, "roc.csv"))
    with atomic_open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as f:
        f.write(report)
    print(report)
    return 0


def _cmd_pairs(args) -> int:
    records = parse_manifest(args.manifest)
    pairs = generate_pairs(records, args.protocol)
    _write_config(os.path.dirname(os.path.abspath(args.out)), _record(args, n_pairs=len(pairs)))
    export_pairs_csv(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    check_real("tol", args.tol, 0, above=True)  # inf passes all, nan and 0 none
    spec = NetworkSpec.profile(args.profile)
    params = build_network(spec, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    c, h, w = spec.input_shape
    batch = [(Tensor(rng.random((c, h, w))), Tensor(rng.random((c, h, w))), y)
             for y in (1, 0, 1, 0)]
    cfg = LossConfig()

    def loss_fn(g: Graph | None):
        return pair_batch_loss(params, batch, cfg, g).total_node

    res = grad_check(loss_fn, params.tensors, max_coords_per_tensor=args.max_coords,
                     seed=args.seed, **_given(args, ("eps",)))
    if not res.checked:
        raise NumericError(f"no coordinate checked; all {res.skipped} straddled a kink")
    print(f"max relative error: {res.max_relative_error:.3e} (tolerance {args.tol:.3e})")
    return 0 if res.max_relative_error < args.tol else 1


def _cmd_ablate(args) -> int:
    grid = _read_json(args.grid, list)
    records = parse_manifest(args.manifest)
    train_records = [r for r in records if r.split == "train"]
    eval_records = [r for r in records if r.split in ("val", "test")] or train_records
    web = parse_manifest(args.web_manifest) if args.web_manifest else None
    spec = NetworkSpec.profile(args.profile)
    base_cfg = apply_settings(TrainConfig(), {"freeze_k": DEFAULT_FREEZE[args.profile],
                                              **_given(args, SETTINGS)})
    _write_config(args.out, _record(args, grid=grid, protocol="overall", **settings_of(base_cfg)))
    rows = run_ablation(grid, train_records, eval_records, base_cfg, spec,
                        out_dir=args.out, web_records=web)
    for row in rows:
        status = row.error or f"best_acc={row.best_accuracy:.4f} gar={row.gar_at}"
        print(f"{row.label}: {status}")
    return 0


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "pairs": _cmd_pairs,
             "gradcheck": _cmd_gradcheck, "ablate": _cmd_ablate}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
