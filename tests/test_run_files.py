"""Every run file reaches disk whole: a write that fails part-way keeps the old bytes."""

import numpy as np
import pytest

from siamverify import NetworkSpec, build_network, save_params
from siamverify import cli
from siamverify.atomic import atomic_open
from siamverify.dataset import PairRecord, export_pairs_csv, generate_pairs, parse_manifest
from siamverify.evaluator import AblationRow, RocCurve, write_ablation_report
from siamverify.trainer import EpochRow, TrainLog
from corpus import build_corpus


def write_checkpoint(out, good):
    params = build_network(NetworkSpec.tiny(), seed=0 if good else 1)
    if not good:
        params.tensors[3].data = np.array(["no float"])  # after the header and three tensors
    save_params(params, out / "checkpoint_final.dgnet")


def write_trainlog(out, good):
    rows = [EpochRow(0, 1.0, 0.5, 0.25, 1.75, 0.5, 0.1),
            EpochRow(1, 0.9 if good else "no float", 0.4, 0.2, 1.5, 0.75, 0.1)]
    TrainLog(rows).write_csv(out / "trainlog.csv")


def run_eval(out, good):
    manifest, _ = build_corpus(out / "corpus", n_identities=2, seed=3)
    checkpoint = out / "net.dgnet"
    save_params(build_network(NetworkSpec.tiny(), seed=0 if good else 1), checkpoint)
    args = cli._build_parser().parse_args(["eval", "--checkpoint", str(checkpoint),
                                           "--manifest", str(manifest), "--out", str(out)])
    report = cli.metrics_report
    with pytest.MonkeyPatch.context() as mp:
        if not good:
            mp.setattr(cli, "metrics_report", lambda s, mode: {**report(s, mode), "~": object()})
        cli._cmd_eval(args)  # the command itself: main() would turn a failure into exit 1


def write_roc(out, good):
    thresholds = np.array([np.inf, 0.5, 0.1 if good else "x"], dtype=object)  # fails at row 3
    RocCurve(thresholds, np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0])).write_csv(
        out / "roc.csv")


def write_config(out, good):
    cli._write_config(out, {"command": "train", "seed": 0 if good else object()})


def write_pairs(out, good):
    manifest, _ = build_corpus(out / "corpus", n_identities=2, seed=3)
    pairs = generate_pairs(parse_manifest(manifest), "overall")
    if not good:
        pairs = pairs[:1] + [PairRecord(None, None, 1, "overall")]
    export_pairs_csv(pairs, out / "pairs.csv")


def write_ablation_csv(out, good):
    write_ablation_report([AblationRow("a", {}, 0.75 if good else "no float", 0.5)], out)


def write_ablation_json(out, good):
    gar_at = {"0.1": 0.5} if good else {"0.1": 0.5, (0, 1): 0.5}  # JSON keys must be strings
    acc = 0.75 if good else 0.5
    write_ablation_report([AblationRow("a", {"margin": 0.5}, acc, 0.5, gar_at)], out)


RUN_FILES = {
    "checkpoint_final.dgnet": write_checkpoint,
    "trainlog.csv": write_trainlog,
    "metrics.json": run_eval,
    "roc.csv": write_roc,
    "resolved_config.json": write_config,
    "pairs.csv": write_pairs,
    "ablation.csv": write_ablation_csv,
    "ablation.json": write_ablation_json,
}

# Files written by the same run; its failing second run would change them.
COMPANIONS = {"metrics.json": ["roc.csv"], "ablation.json": ["ablation.csv"]}


@pytest.mark.parametrize("name", RUN_FILES)
def test_failed_write_keeps_previous_file(tmp_path, name):
    RUN_FILES[name](tmp_path, True)
    names = [name, *COMPANIONS.get(name, [])]
    before = {n: (tmp_path / n).read_bytes() for n in names}
    with pytest.raises((AttributeError, TypeError, ValueError)):
        RUN_FILES[name](tmp_path, False)
    assert {n: (tmp_path / n).read_bytes() for n in names} == before
    assert [p.name for p in tmp_path.rglob("*.tmp")] == []


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(tmp_path / "out.txt", "w") as f:
            f.write("part")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []

