"""Batch command-line pipeline: synth, segment, train, eval, shift.

Every setting is one row of ``SETTINGS``: its config key, its flag, the cast
applied to flag and file text, and its default. Each subcommand reads the
rows of its key groups: synth ``synth.*``, segment ``segment.*``, train
``train.*`` and ``net.*``, eval and shift none: segment writes the
segmentation into the volumes manifest, train copies it into the weights,
eval refuses volumes cut another way and shift cuts windows as the weights
say. Settings resolve as flags > config file > defaults,
and each command logs one ``config <key> = <value>`` line per key it reads,
sorted by key. The config file holds flat dotted keys, one "key = value" per
line, "#" comments; any key of the table is accepted by every subcommand, so
one file can serve the whole pipeline; any other key, or a repeated one, is
an error. The STWNN_LOG environment variable (debug/info/warning/quiet)
selects log verbosity. Exit codes: 0 success, 1 runtime failure (a corrupt
file, named in the message, or running out of memory), 2 usage or config error,
such as an output that would land on an input or on another output.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import csi, dataio, network, training, volumes
from .errors import (CompatibilityError, ConfigError, DimensionError,
                     InsufficientDataError, StwnnError, UsageError, ValidationError)

log = logging.getLogger("stwnn")

_USAGE_ERRORS = (ConfigError, UsageError, ValidationError, DimensionError,
                 CompatibilityError)
EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _int_list(text) -> tuple:
    return tuple(int(x) for x in str(text).split(","))


# (config key, flag, cast for flag and file text, default)
SETTINGS = (
    ("synth.out", "--out", str, "data"),
    ("synth.classes", "--classes", int, 3),
    ("synth.per_class", "--per-class", int, 30),
    ("synth.val_per_class", "--val-per-class", int, 3),
    ("synth.test_per_class", "--test-per-class", int, 10),
    ("synth.duration", "--duration", float, 1.0),
    ("synth.rate", "--rate", float, 100.0),
    ("synth.tx", "--tx", int, 3),
    ("synth.rx", "--rx", int, 3),
    ("synth.subcarriers", "--subcarriers", int, 30),
    ("synth.noise_std", "--noise-std", float, 0.1),
    ("synth.seed", "--seed", int, 0),
    ("segment.out", "--out", str, "volumes"),
    ("segment.window", "--window", int, 32),
    ("segment.overlap", "--overlap", int, 16),
    ("segment.scales", "--scales", _int_list, (1, 2, 4)),
    ("segment.target", "--target", _int_list, (30, 32, 9)),
    ("train.epochs", "--epochs", int, 10),
    ("train.batch_size", "--batch-size", int, 16),
    ("train.lambda", "--lambda", float, 0.5),
    ("train.lr", "--lr", float, 0.01),
    ("train.momentum", "--momentum", float, 0.9),
    ("train.seed", "--seed", int, 0),
    ("net.blocks", "--blocks", _int_list, (8, 16, 32)),
    ("net.kernel", "--kernel", _int_list, (3, 3, 3)),
    ("net.feature_dim", "--feature-dim", int, 32),
    ("net.score_fn", "--score-fn", str, "tanh"),
    ("net.variant", "--variant", str, "stwnn"),
    ("net.seed", "--net-seed", int, 0),
)


def _group(settings: dict, group: str) -> dict:
    """The resolved settings of one key group, keyed by the part after the dot."""
    return {key.partition(".")[2]: value for key, value in settings.items()
            if key.partition(".")[0] == group}


def _load_config_file(path) -> dict:
    known = {row[0] for row in SETTINGS}
    values, seen_at = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen_at:
            raise ConfigError(
                f"{path}:{lineno}: config key {key!r} repeats line {seen_at[key]}")
        values[key], seen_at[key] = value.strip(), lineno
    return values


def _settings(args) -> dict:
    """{key: value} for the subcommand's rows, resolved as flag > config file
    > default with the row's cast; logs one sorted ``config`` line per key."""
    file_values = _load_config_file(args.config) if args.config else {}
    settings = {}
    for key, _, cast, default in args.rows:
        value = getattr(args, key)
        if value is None and key in file_values:
            try:
                value = cast(file_values[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"config key {key!r}: cannot parse {file_values[key]!r}") from exc
        settings[key] = default if value is None else value
    for key in sorted(settings):
        log.info("config %s = %s", key, settings[key])
    return settings


def _cmd_synth(args, settings: dict) -> int:
    s = _group(settings, "synth")
    n_classes = s["classes"]
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    if s["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {s['seed']}")
    per_split = {"train": s["per_class"], "val": s["val_per_class"],
                 "test": s["test_per_class"]}
    if per_split["train"] < 1 or per_split["test"] < 1:
        raise ValidationError("per-class stream counts for train and test must be >= 1")
    if per_split["val"] < 0:
        raise ValidationError("val per-class stream count must be >= 0")

    out_dir = Path(s["out"])
    n_tx, n_rx, n_sub = s["tx"], s["rx"], s["subcarriers"]
    entries = []
    for split_index, split in enumerate(("train", "val", "test")):
        for class_id in range(n_classes):
            for k in range(per_split[split]):
                seed = int(np.random.default_rng(
                    [s["seed"], split_index, class_id, k]).integers(2**32))
                spec = csi.doppler_activity_spec(
                    class_id, n_ant=n_tx * n_rx, duration_s=s["duration"],
                    noise_std=s["noise_std"], seed=seed)
                stream = csi.synth_stream(spec, n_tx, n_rx, n_sub, s["rate"])
                # made only once a stream exists, so a bad spec leaves no directory
                out_dir.mkdir(parents=True, exist_ok=True)
                name = f"{split}_c{class_id}_{k:04d}.csi1"
                dataio.save_stream(out_dir / name, stream)
                entries.append(dataio.ManifestEntry(path=name, label=class_id, split=split))
    dataio.write_manifest(out_dir / "manifest.tsv",
                          dataio.DatasetManifest(entries=entries, n_classes=n_classes))
    print(f"wrote {len(entries)} streams and manifest.tsv to {out_dir}")
    return EXIT_OK


def _manifest_files(manifest_path: Path, manifest) -> list:
    """The manifest's own path and the path of every file it lists."""
    return [manifest_path, *(manifest_path.parent / e.path for e in manifest.entries)]


def _refuse_overwrites(inputs, outputs) -> None:
    """Refuse two outputs on one path, or an output on an input, before any write.
    Each output is (path, kind, name) of what writes it, such as ("stream", "a.csi1")."""
    sources = {Path(p).resolve(): p for p in inputs}
    writers = {}
    for path, kind, name in outputs:
        target = Path(path).resolve()
        if target in writers:
            raise UsageError(f"{kind}s {writers[target]!r} and {name!r} would both be "
                             f"written to {Path(path).name!r}")
        if target in sources:
            raise UsageError(f"{path} would overwrite the input {sources[target]}")
        writers[target] = name


def _cmd_segment(args, settings: dict) -> int:
    s = _group(settings, "segment")
    cfg = volumes.SegmentationConfig(window=s["window"], overlap=s["overlap"],
                                     scales=s["scales"], target_shape=s["target"])
    manifest_path = Path(args.manifest)
    manifest = dataio.load_manifest(manifest_path)
    out_dir = Path(s["out"])
    names = [Path(e.path).stem + ".vol1" for e in manifest.entries]
    _refuse_overwrites(_manifest_files(manifest_path, manifest), [
        *((out_dir / name, "stream", e.path) for e, name in zip(manifest.entries, names)),
        (out_dir / "manifest.tsv", "output", "manifest.tsv")])
    out_dir.mkdir(parents=True, exist_ok=True)

    entries, failures = [], 0
    # every VOL1 is written into a fresh directory inside --out and moved into
    # place only once the run can succeed, so a refused run leaves none behind
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".segment-") as staging:
        for e, name in zip(manifest.entries, names):
            signal = csi.amplitude(dataio.load_stream(manifest_path.parent / e.path))
            try:
                vols = volumes.stream_volumes(signal, cfg, label=e.label)
            except InsufficientDataError as exc:
                log.warning("skipping %s: %s", e.path, exc)
                failures += 1
                continue
            dataio.save_volumes(Path(staging) / name, vols)
            entries.append(dataio.ManifestEntry(path=name, label=e.label, split=e.split))
            print(f"{e.path}\tsegments={len(vols) // len(cfg.scales)}\tvolumes={len(vols)}")
        for split in ("train", "test"):
            if not any(e.split == split for e in entries):
                raise UsageError(f"no {split} stream produced any volume")
        for e in entries:
            os.replace(Path(staging) / e.path, out_dir / e.path)
    vol_manifest = dataio.DatasetManifest(entries=entries, n_classes=manifest.n_classes,
                                          segmentation=cfg)
    dataio.write_manifest(out_dir / "manifest.tsv", vol_manifest)
    if failures:
        log.warning("%d streams skipped", failures)
    return EXIT_OK


def _load_samples(manifest_path: Path, split: str):
    """(sample array, label) pairs for one split of a volumes manifest, and the manifest.
    Each file's grid (``dataio.load_volumes``) must carry the manifest's scales, target, label."""
    manifest = dataio.load_manifest(manifest_path)
    seg = manifest.segmentation
    if seg is None:
        raise ValidationError(f"{manifest_path} has no @segmentation line; re-run stwnn segment")
    dataset = []
    for e in manifest.split(split):
        path = manifest_path.parent / e.path
        vols = dataio.load_volumes(path)
        scales = tuple(v.scale for v in vols if v.source_segment == 0)
        for name, have, want in (("scales", scales, seg.scales),
                                 ("volume shapes", vols[0].data.shape, seg.target_shape),
                                 ("stored labels", vols[0].label, e.label)):
            if have not in (None, want):  # None: the volumes are stored unlabeled
                raise ValidationError(f"{path}: {name} {have} differ from the manifest's {want}")
        grid = np.stack([v.data for v in vols]).reshape(-1, len(scales), *seg.target_shape)
        dataset += [(sample, e.label) for sample in grid]
    return dataset, manifest


def _cmd_train(args, settings: dict) -> int:
    t, n = _group(settings, "train"), _group(settings, "net")
    cfg = training.TrainConfig(epochs=t["epochs"], batch_size=t["batch_size"],
                               mix=t["lambda"], lr=t["lr"], momentum=t["momentum"],
                               seed=t["seed"])
    manifest_path = Path(args.manifest)
    train_set, manifest = _load_samples(manifest_path, "train")
    val_set, _ = _load_samples(manifest_path, "val")
    if not val_set:
        val_set = train_set
        log.info("no val split found; validating on the train split")
    out_path = Path(args.out)
    history_path = out_path.with_suffix(".history.tsv")
    _refuse_overwrites(_manifest_files(manifest_path, manifest), [
        (out_path, "output", "weights"), (history_path, "output", "history")])

    model = network.build_model(network.NetworkConfig(
        n_classes=manifest.n_classes, in_channels=len(manifest.segmentation.scales),
        block_channels=n["blocks"], kernel=n["kernel"], feature_dim=n["feature_dim"],
        score_fn=n["score_fn"], variant=n["variant"], seed=n["seed"]))
    model, history = training.train(model, train_set, val_set, cfg)
    for stats in history:
        print(f"epoch {stats.epoch}\tloss {stats.train_loss:.6f}\tval_oa {stats.val_accuracy:.4f}")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    dataio.save_weights(out_path, model, manifest.segmentation)
    dataio.write_table(history_path, [("epoch", "train_loss", "val_oa")] + [
        (stats.epoch, f"{stats.train_loss:.12g}", f"{stats.val_accuracy:.12g}")
        for stats in history])
    print(f"wrote weights to {out_path} and history to {history_path}")
    return EXIT_OK


def _write_metrics(metrics: training.Metrics, report_path: Path, table_path: Path):
    n = metrics.confusion.shape[0]
    with open(report_path, "w", encoding="utf-8") as f:
        f.write(f"overall accuracy: {metrics.overall_accuracy:.4f}\n")
        f.write("per-class accuracy:\n")
        for c in range(n):
            f.write(f"  class {c}: {metrics.per_class_accuracy[c]:.4f}\n")
        f.write("confusion matrix (rows = true class):\n")
        for row in metrics.confusion:
            f.write("  " + " ".join(f"{v:6d}" for v in row) + "\n")
    dataio.write_table(table_path, [
        ("metric", "class", "value"), ("oa", "-", f"{metrics.overall_accuracy:.12g}"),
        *(("class_accuracy", c, f"{metrics.per_class_accuracy[c]:.12g}") for c in range(n)),
        *(("confusion", f"{t},{p}", metrics.confusion[t, p])
          for t in range(n) for p in range(n))])


def _cmd_eval(args, settings: dict) -> int:
    training._reuse_freed_heap()    # the forwards then reuse freed pages, not fault in new ones
    manifest_path = Path(args.manifest)
    test_set, manifest = _load_samples(manifest_path, "test")
    model, trained = dataio.load_weights(args.weights)
    cut = manifest.segmentation  # its overlap only sets how many windows there are
    for name, have, want in (("n_classes", manifest.n_classes, model.config.n_classes),
                             ("window", cut.window, trained.window),
                             ("scales", cut.scales, trained.scales),
                             ("target_shape", cut.target_shape, trained.target_shape)):
        if have != want:
            raise CompatibilityError(f"the volumes manifest has {name} {have}, the weights {want}")
    report = Path(args.report) if args.report else Path(args.weights).with_suffix(".report.txt")
    table = Path(args.metrics) if args.metrics else Path(args.weights).with_suffix(".metrics.tsv")
    _refuse_overwrites([*_manifest_files(manifest_path, manifest), args.weights], [
        (report, "output", "report"), (table, "output", "metrics")])
    metrics = training.evaluate(model, test_set)
    _write_metrics(metrics, report, table)
    print(f"overall accuracy {metrics.overall_accuracy:.4f}")
    print(f"wrote report to {report} and metrics to {table}")
    return EXIT_OK


def _cmd_shift(args, settings: dict) -> int:
    training._reuse_freed_heap()
    manifest_path = Path(args.manifest)
    manifest = dataio.load_manifest(manifest_path)
    model, cfg = dataio.load_weights(args.weights)
    out = Path(args.out) if args.out else manifest_path.parent / "shift_agreement.tsv"
    _refuse_overwrites([*_manifest_files(manifest_path, manifest), args.weights],
                       [(out, "output", "table")])

    rows = []
    for e in manifest.split("test"):
        stream = dataio.load_stream(manifest_path.parent / e.path)
        agreement = training.shift_consistency(model, stream, cfg, args.max_shift)
        rows.append((e.path, agreement))
    dataio.write_table(out, [("stream", "agreement")]
                       + [(path, f"{agreement:.12g}") for path, agreement in rows])
    mean = sum(a for _, a in rows) / len(rows)
    print(f"mean shift agreement {mean:.4f} over {len(rows)} streams")
    print(f"wrote table to {out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stwnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *groups):
        """A subcommand that reads the table rows of the key ``groups``."""
        rows = tuple(row for row in SETTINGS if row[0].partition(".")[0] in groups)
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file with flat dotted keys")
        for key, flag, cast, default in rows:
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            p.add_argument(flag, dest=key, type=cast, help=f"config key {key}, default {shown}")
        p.set_defaults(func=func, rows=rows)
        return p

    command("synth", _cmd_synth, "generate a labeled synthetic CSI dataset", "synth")
    p = command("segment", _cmd_segment, "cut streams into multi-scale volumes", "segment")
    p.add_argument("--manifest", required=True)

    p = command("train", _cmd_train, "train a model on segmented volumes", "train", "net")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="weight archive path")

    p = command("eval", _cmd_eval, "evaluate weights on a test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--report")
    p.add_argument("--metrics")

    p = command("shift", _cmd_shift,
                "prediction agreement under window shifts, cut as the weights were trained")
    p.add_argument("--manifest", required=True, help="streams manifest")
    p.add_argument("--weights", required=True)
    p.add_argument("--max-shift", type=int, default=2)
    p.add_argument("--out")
    return parser


def _setup_logging():
    level_name = os.environ.get("STWNN_LOG", "info").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warning": logging.WARNING, "quiet": logging.ERROR}.get(level_name, logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr, force=True)
    # numpy's RuntimeWarnings, in forked workers too, become py.warnings records
    logging.captureWarnings(True)


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, _settings(args))
    except _USAGE_ERRORS as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (StwnnError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except MemoryError as exc:
        log.error("out of memory: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
