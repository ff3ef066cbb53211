"""Command-line surface: prep, train, eval, diagnose, sweep.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .data import (ItemVocab, ParseError, SplitDataset, UserSequence, build_sequences,
                   ingest, split_leave_one_out)
from .metrics import (export_projection_csv, export_spectrum_csv, project_2d,
                      singular_spectrum)
from .trainer import (TrainConfig, evaluate, load_checkpoint, save_checkpoint,
                      train, write_curves_csv)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="duorec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="ingest, filter, split, export")
    p.add_argument("--format", required=True, choices=["tsv-uit", "ml-1m"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--max-len", type=int, default=50)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="directory written by prep")
    p.add_argument("--config", help="JSON config mirroring TrainConfig")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["valid", "test"], default="test")
    p.add_argument("--out", required=True)

    p = sub.add_parser("diagnose", help="export spectrum and 2D projection")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-center", action="store_true")

    p = sub.add_parser("sweep", help="grid of training runs")
    p.add_argument("--grid", required=True, action="append",
                   help="key=v1,v2,... (repeatable)")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    return parser


def _write_dataset(out: Path, sequences: list[UserSequence], vocab: ItemVocab) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sequences.txt", "w") as f:
        f.writelines(" ".join(map(str, seq.items)) + "\n" for seq in sequences)
    vocab.export_csv(out / "vocab.csv")


def load_dataset_dir(path) -> tuple[list[UserSequence], ItemVocab]:
    """Read a directory written by prep. A token that is not an integer, a
    ``vocab.csv`` without an index, item_id or frequency column, whose index
    column is not 1..V in file order or that repeats an ``item_id``, or a
    sequence item outside [1, V), raises ParseError naming the file and line."""
    path = Path(path)
    index_of, item_of, freqs = {}, ["<pad>"], [0]
    vocab_csv = path / "vocab.csv"
    with open(vocab_csv, newline="") as f:
        rows = csv.DictReader(f)
        missing = [c for c in ("index", "item_id", "frequency") if c not in (rows.fieldnames or ())]
        if missing:
            raise ParseError(f"{vocab_csv}:1: header lacks column(s) {', '.join(missing)}")
        for row in rows:
            try:
                index, freq = int(row["index"]), int(row["frequency"])
            except (TypeError, ValueError):              # TypeError: a short row's None
                raise ParseError(f"{vocab_csv}:{rows.line_num}: index {row['index']!r} and "
                                 f"frequency {row['frequency']!r} must be integers") from None
            if index != len(item_of):
                raise ParseError(f"{vocab_csv}:{rows.line_num}: index {index}, "
                                 f"expected {len(item_of)}")
            if row["item_id"] in index_of:
                raise ParseError(f"{vocab_csv}:{rows.line_num}: item_id {row['item_id']!r} "
                                 f"repeats index {index_of[row['item_id']]}")
            index_of[row["item_id"]] = len(item_of)
            item_of.append(row["item_id"])
            freqs.append(freq)
    size = len(item_of)
    sequences = []
    with open(path / "sequences.txt") as f:
        for u, line in enumerate(f):
            try:
                items = [int(x) for x in line.split()]
            except ValueError as exc:
                raise ParseError(f"{path / 'sequences.txt'}:{u + 1}: {exc}") from None
            if items and not 1 <= min(items) <= max(items) < size:
                bad = next(i for i in items if not 1 <= i < size)
                raise ParseError(f"{path / 'sequences.txt'}:{u + 1}: item {bad} "
                                 f"outside [1, {size})")
            sequences.append(UserSequence(items=items))
    return sequences, ItemVocab(item_of=item_of, frequency=np.array(freqs, dtype=np.int64))


def _load_config(args) -> TrainConfig:
    config = TrainConfig.from_json(args.config) if args.config else TrainConfig()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


def _write_eval(out: Path, rep) -> dict:
    metrics = {f"hr@{k}": round(v, 6) for k, v in rep.hr.items()}
    metrics |= {f"ndcg@{k}": round(v, 6) for k, v in rep.ndcg.items()}
    with open(out / "eval.json", "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
    return metrics


def _load_split(data_dir, max_len: int) -> SplitDataset:
    sequences, vocab = load_dataset_dir(data_dir)
    return split_leave_one_out(sequences, vocab, max_len=max_len)


def _run_training(config: TrainConfig, split: SplitDataset, out: Path) -> dict:
    result = train(config, split)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.duo", result.checkpoint)
    write_curves_csv(out / "curves.csv", result.curves)
    metrics = _write_eval(out, evaluate(result.checkpoint.params, *split.window(split.test)))
    if result.diverged:
        print("warning: training diverged; last finite checkpoint retained",
              file=sys.stderr)
    return metrics


def _cmd_prep(args) -> None:
    events = ingest(args.input, args.format)
    sequences, vocab = build_sequences(events, min_count=args.min_count,
                                       max_len=args.max_len)
    _write_dataset(Path(args.out), sequences, vocab)
    n_actions = int(vocab.frequency.sum())
    print(f"users={len(sequences)} items={vocab.size - 1} actions={n_actions}")


def _cmd_train(args) -> None:
    config = _load_config(args)
    metrics = _run_training(config, _load_split(args.data, config.max_len), Path(args.out))
    print(json.dumps(metrics, sort_keys=True))


def _load_for_checkpoint(args):
    """The checkpoint and the dataset it is applied to, which must share a vocabulary."""
    ckpt = load_checkpoint(args.checkpoint)
    sequences, vocab = load_dataset_dir(args.data)
    if vocab.size != ckpt.params.vocab_size:
        raise ValueError(f"{args.data} has {vocab.size - 1} items but the checkpoint "
                         f"was trained on {ckpt.params.vocab_size - 1}")
    return ckpt, sequences, vocab


def _cmd_eval(args) -> None:
    ckpt, sequences, vocab = _load_for_checkpoint(args)
    split = split_leave_one_out(sequences, vocab, max_len=ckpt.params.config.max_len)
    examples = split.valid if args.split == "valid" else split.test
    rep = evaluate(ckpt.params, *split.window(examples))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(_write_eval(out, rep), sort_keys=True))


def _cmd_diagnose(args) -> None:
    ckpt, _, vocab = _load_for_checkpoint(args)
    emb = ckpt.params["item_emb"].data
    center = not args.no_center
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_spectrum_csv(out / "spectrum.csv", singular_spectrum(emb, center=center))
    export_projection_csv(out / "diagnostics.csv", project_2d(emb, vocab, center=center))
    print(f"wrote {out / 'spectrum.csv'} and {out / 'diagnostics.csv'}")


def _grid_types() -> dict[str, type]:
    """Each config key a sweep may vary, with the type its values are read
    as: every key but max_len, since one split serves every run."""
    hints = typing.get_type_hints(TrainConfig)
    return {key: hints[f.name] for key, f in TrainConfig.fields_by_key().items()
            if key != "max_len"}


def _cmd_sweep(args) -> None:
    base = _load_config(args)
    types = _grid_types()
    axes: list[tuple[str, list]] = []
    for axis in args.grid:
        key, _, values = axis.partition("=")
        if key not in types or not values:
            raise _UsageError(f"bad grid axis {axis!r}")
        if key in dict(axes):
            raise _UsageError(f"grid key {key!r} given twice")
        cast = types[key]
        try:
            axes.append((key, [cast(v) for v in values.split(",")]))
        except ValueError:
            raise _UsageError(f"grid axis {axis!r}: values must be {cast.__name__}s") from None
    # every combination's config is built, and so checked, before any run
    grid = [dict(zip((k for k, _ in axes), combo))
            for combo in itertools.product(*(vals for _, vals in axes))]
    configs = [TrainConfig.from_dict(base.to_dict() | overrides) for overrides in grid]
    # no grid axis changes the data or max_len, so every run shares one split
    split = _load_split(args.data, base.max_len)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (overrides, cfg) in enumerate(zip(grid, configs)):
        metrics = _run_training(cfg, split, out / f"run_{i}")
        rows.append({**overrides, **metrics})
    keys = [k for k, _ in axes] + sorted(k for k in rows[0] if k not in dict(axes))
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=keys)
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out / 'summary.csv'} ({len(rows)} runs)")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        {
            "prep": _cmd_prep,
            "train": _cmd_train,
            "eval": _cmd_eval,
            "diagnose": _cmd_diagnose,
            "sweep": _cmd_sweep,
        }[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
