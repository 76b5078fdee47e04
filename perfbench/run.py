"""siamverify benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed drives the synthetic corpus, the network initialisation and the
training seed.  ``--trace 0`` measures the end-to-end metrics with the
program's own code.  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (see perfbench/README.md).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: default threading is several times
# slower when anything else shares the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CPUS = sorted(os.sched_getaffinity(0))

# Every workload's pairs come from the `overall` protocol over its corpus.
# kinds: (genuine, disguised, impostor) images per identity.
WORKLOADS = {
    # training: tape, backward, augmentation and SGD; 12 x 15 = 180 pairs
    "train_tiny": dict(profile="tiny", kinds=[(3, 2, 1)] * 12, channels=1,
                       size=(48, 48), epochs=1, batch_size=8),
    # scoring with heavy image reuse: 156 images, 1914 pairs, each image in
    # about 25 pairs, nearly two thousand distinct scores for the metric sweep
    "eval_overall": dict(profile="tiny", kinds=[(14, 8, 4)] * 6, channels=1,
                         size=(48, 48), checkpoint=True),
    # paper-scale forward at zero reuse: every image in exactly one pair,
    # half genuine-disguised (y=1), half genuine-impostor (y=0).  No
    # checkpoint round trip: writing 1 GiB per set-up would put disk
    # writeback into the timed rounds and double the peak RSS.
    "eval_vgg_unshared": dict(profile="vggface16", kinds=[(1, 1, 0), (1, 0, 1)],
                              channels=3, size=(160, 144)),
}
SETUP_REPS = {"train_tiny": 50, "eval_overall": 50, "eval_vgg_unshared": 5}

END_TO_END = [("setup_s", "s"), ("pairs_per_s", "1/s"), ("peak_rss_mb", "MB")]

# (name, unit); per round of the traced run unless the name is a setup call,
# which is per set-up repetition
PER_LAYER = [
    ("evaluator.score_pairs.self_ms", "ms"),
    ("evaluator.metrics_report.ms", "ms"),
    ("evaluator.roc_curve.ms", "ms"),
    ("evaluator.distinct_scores", "count"),
    ("network.forward_embedding.calls", "count"),
    ("network.forward_embedding.ms", "ms"),
    ("network.embeddings_per_unique_image", "ratio"),
    ("network.forward_head.calls", "count"),
    ("network.forward_head.ms", "ms"),
    ("network.build_network.ms", "ms"),
    ("network.save_params.ms", "ms"),
    ("network.load_params.ms", "ms"),
    ("tensor.backward.calls", "count"),
    ("tensor.backward.ms", "ms"),
    ("tensor.backward.self_ms", "ms"),
    ("tensor.tape_nodes_per_step", "count"),
] + [(f"ops.{op}.{stat}", unit) for op in ("conv2d", "linear")
     for stat, unit in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"), ("gmac", "GMAC"))
] + [("ops.conv2d.cols_mb", "MB")] + [
    (f"ops.{op}.{stat}", "ms")
    for op in ("maxpool2", "relu", "other") for stat in ("fwd_ms", "bwd_ms")
] + [
    ("dataset.augment.calls", "count"),
    ("dataset.augment.ms", "ms"),
    ("images.rotate.ms", "ms"),
    ("dataset.load_image.calls", "count"),
    ("dataset.load_image.ms", "ms"),
    ("images.read_image.ms", "ms"),
    ("images.bilinear_resize.ms", "ms"),
    ("dataset.parse_manifest.ms", "ms"),
    ("dataset.generate_pairs.ms", "ms"),
    ("losses.total_loss.calls", "count"),
    ("losses.total_loss.ms", "ms"),
    ("losses.cosine_distance.calls", "count"),
    ("losses.cosine_distance.ms", "ms"),
    ("trainer.sgd_step.calls", "count"),
    ("trainer.sgd_step.ms", "ms"),
    ("trainer.make_batches.ms", "ms"),
    ("trainer.train.self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]
SETUP_CALLS = ("dataset.parse_manifest", "dataset.generate_pairs", "network.build_network",
               "network.save_params", "network.load_params")


def import_program():
    """Import siamverify from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "siamverify", "__init__.py")):
        sys.exit(f"perfbench: no siamverify package under {SRC}")
    sys.path.insert(0, SRC)
    import siamverify
    if not os.path.abspath(siamverify.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported siamverify from {siamverify.__file__}, not {SRC}")


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(CPUS),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "git_sha": git_sha(),
    }


def _spin() -> int:
    s = 0
    for i in range(300_000):
        s += i & 7
    return s


def pin_fastest_cpu() -> None:
    """Pin this process to the core that runs a short spin fastest right now.

    On a shared host a busy neighbour slows one core at a time for tens of
    seconds; choosing the core before each round keeps the one client off
    it.  In one interleaved comparison of 6 seeds a side on a 2-core VM,
    it cut the quartile spread of train_tiny's pairs_per_s from 14 % to 5 %.
    """
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        _spin()
        timings.append((time.perf_counter() - t0, cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def setup_once(name: str, seed: int, manifest: str, work: str):
    """Manifest -> pairs -> network: the program's part of a run's set-up."""
    from siamverify import dataset, network

    w = WORKLOADS[name]
    records = dataset.parse_manifest(manifest)
    pairs = dataset.generate_pairs(records, "overall")
    spec = network.NetworkSpec.profile(w["profile"])
    params = network.build_network(spec, seed)
    if name == "train_tiny":
        network.freeze_prefix(params, network.DEFAULT_FREEZE[w["profile"]])
    if w.get("checkpoint"):
        # scoring starts from a checkpoint, as `siamverify eval` does
        ckpt = os.path.join(work, "model.dgnet")
        network.save_params(params, ckpt)
        del params
        params = network.load_params(ckpt, expect_spec=spec)
    return pairs, params


def run_setup(name: str, seed: int, work: str, tracer=None):
    """Write the corpus once, then time SETUP_REPS set-ups.

    Returns (median seconds, pairs, params).  Writing the corpus is the
    benchmark's own work and follows the host's disk speed, which moved 3x
    within an hour on a shared VM, so it is not part of the timed set-up.
    """
    w = WORKLOADS[name]
    manifest = corpus.write_corpus(work, seed, w["kinds"], w["channels"], w["size"])
    times = []
    result = None
    for rep in range(SETUP_REPS[name]):
        result = None
        gc.collect()
        if tracer is not None:
            tracer.set_phase(f"setup{rep}")
        t0 = time.perf_counter()
        result = setup_once(name, seed, manifest, work)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result[0], result[1]


def param_digest(params) -> str:
    h = hashlib.sha256()
    for t in params.tensors:
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


class TrainRounds:
    """One round = one train() call from the same initial parameters."""

    boundary = "trainer.sgd_step"

    def __init__(self, pairs, params, seed):
        from siamverify import AugmentConfig, NetworkParams, TrainConfig

        w = WORKLOADS["train_tiny"]
        self.pairs = pairs
        self.make_params = lambda: NetworkParams(
            spec=params.spec, tensors=[t.copy() for t in params.tensors],
            freeze=list(params.freeze), seed=params.seed)
        self.cfg = TrainConfig(epochs=w["epochs"], batch_size=w["batch_size"], seed=seed,
                               augment=AugmentConfig())
        self.steps = w["epochs"] * -(-len(pairs) // w["batch_size"])
        self.work = w["epochs"] * len(pairs)
        self.digest = None

    def run(self):
        """Returns (seconds, operations attempted, operations failed)."""
        from siamverify import trainer
        from siamverify.errors import NumericError

        params = self.make_params()
        t0 = time.perf_counter()
        try:
            _, log, _ = trainer.train(params, self.pairs, self.cfg)
        except NumericError:
            return time.perf_counter() - t0, self.steps, self.steps
        seconds = time.perf_counter() - t0
        ok = len(log.rows) == self.cfg.epochs and all(
            np.isfinite(r.l_total) for r in log.rows)
        # determinism contract: same seed, bitwise-equal parameters
        digest = param_digest(params)
        self.digest = self.digest or digest
        ok = ok and digest == self.digest
        return seconds, self.steps, 0 if ok else self.steps

    def extras(self):
        return {}


def expected_report(gen: np.ndarray, imp: np.ndarray, far_targets=(0.001, 0.01, 0.1)):
    """Sort-based recomputation of metrics_report and the ROC points."""
    g, i = np.sort(gen), np.sort(imp)
    ng, ni = g.size, i.size
    t = np.unique(np.concatenate([g, i]))
    acc_g = ng - np.searchsorted(g, t, "left")  # genuine scores >= t
    acc_i = ni - np.searchsorted(i, t, "left")  # impostor scores >= t
    far, gar = acc_i / ni, acc_g / ng
    gar_at = {}
    for ft in far_targets:
        hit = np.flatnonzero(far <= ft)  # t ascending: first hit is the smallest t
        gar_at[str(ft)] = float(gar[hit[0]]) if hit.size else 0.0
    correct = np.append(acc_g + (ni - acc_i), ni)
    candidates = np.append(t, np.inf)
    k = int(np.argmax(correct))  # first maximum: lowest threshold wins ties
    report = {
        "mode": "head",
        "n_genuine": int(ng),
        "n_impostor": int(ni),
        "gar_at": gar_at,
        "best_accuracy": float(correct[k] / (ng + ni)),
        "best_threshold": float(candidates[k]),
        "acc_at_0.5": float((np.sum(gen >= 0.5) + np.sum(imp < 0.5)) / (ng + ni)),
    }
    roc = [(np.inf, 0.0, 0.0)] + [(float(a), float(b), float(c))
                                  for a, b, c in zip(t[::-1], far[::-1], gar[::-1])]
    return report, roc


class EvalRounds:
    """One round = score_pairs over every pair, then metrics_report and roc_curve."""

    boundary = "network.siamese_forward"

    def __init__(self, pairs, params):
        self.pairs, self.params = pairs, params
        self.n_pos = sum(1 for p in pairs if p.y == 1)
        self.images = len({(r.identity, r.path) for p in pairs for r in (p.a, p.b)})
        self.work = len(pairs)
        self.first = None
        self.distinct = []

    def run(self):
        from siamverify import evaluator

        n = len(self.pairs)
        t0 = time.perf_counter()
        scores = evaluator.score_pairs(self.params, self.pairs, mode="head")
        report = evaluator.metrics_report(scores, "head")
        roc = evaluator.roc_curve(scores)
        seconds = time.perf_counter() - t0

        gen, imp = scores.genuine, scores.impostor
        if gen.size != self.n_pos or imp.size != n - self.n_pos:
            return seconds, n, n
        allscores = np.concatenate([gen, imp])
        failed = int(np.sum(~((allscores > 0.0) & (allscores < 1.0))))
        want_report, want_roc = expected_report(gen, imp)
        ok = all(report.get(k) == v for k, v in want_report.items()) and roc.points == want_roc
        distinct = int(np.unique(allscores).size)
        self.distinct.append(distinct)
        ok = ok and distinct > 1  # all-equal scores mean a degenerate network
        self.first = self.first if self.first is not None else allscores.tobytes()
        ok = ok and allscores.tobytes() == self.first
        return seconds, n, n if not ok else failed

    def extras(self):
        return {"distinct_scores": statistics.median(self.distinct) if self.distinct else 0,
                "images": self.images}


def run_rounds(rounds, seconds: float, tracer=None):
    """Closed loop until the window is spent; with a tracer, odd rounds are traced.

    Returns per-round (rate, traced) plus attempted and failed operations.
    """
    results, attempted, failed = [], 0, 0
    start = time.perf_counter()
    durations = []
    min_rounds = 2 if tracer is not None or isinstance(rounds, TrainRounds) else 1
    while len(results) < min_rounds or (
            time.perf_counter() - start + 0.5 * statistics.median(durations) < seconds):
        traced = tracer is not None and len(results) % 2 == 1
        gc.collect()
        pin_fastest_cpu()
        if traced:
            tracer.set_phase(f"round{len(results)}")
            with tracer.active():
                dt, att, bad = rounds.run()
        else:
            dt, att, bad = rounds.run()
        durations.append(dt)
        results.append((rounds.work / dt, traced))
        attempted += att
        failed += min(bad, att)
    return results, attempted, failed


def layer_metrics(tracer, n_setup: int, results, extras: dict) -> dict:
    import tracer as tracing

    traced = [f"round{i}" for i, (_, t) in enumerate(results) if t]
    nr = len(traced)
    rounds = tracer.summary(set(traced))
    setup = tracer.summary({f"setup{i}" for i in range(n_setup)})

    def stat(name, key):
        if name in SETUP_CALLS:
            return setup[name][key] / n_setup
        return rounds[name][key] / nr

    def family(op, suffix):
        kinds = [k for k in tracing.OPS if tracing.family(k) == op]
        return sum(rounds[f"ops.{k}{suffix}"]["ms"] for k in kinds) / nr

    values = {}
    for name, _ in PER_LAYER:
        parts = name.split(".")
        if name == "evaluator.distinct_scores":
            v = extras.get("distinct_scores", 0)
        elif name == "network.embeddings_per_unique_image":
            images = extras.get("images")
            v = stat("network.forward_embedding", "calls") / images if images else 0.0
        elif name == "tensor.tape_nodes_per_step":
            v = statistics.fmean(tracer.tape_lengths) if tracer.tape_lengths else 0
        elif name == "trace.overhead_frac":
            plain = statistics.median(r for r, t in results if not t)
            v = 1.0 - statistics.median(r for r, t in results if t) / plain
        elif parts[0] == "ops" and parts[2] in ("fwd_ms", "bwd_ms"):
            v = family(parts[1], "" if parts[2] == "fwd_ms" else ".bwd")
        elif parts[0] == "ops" and parts[2] in ("gmac", "cols_mb"):
            v = tracer.counters[name] / nr
        else:
            v = stat(".".join(parts[:-1]), parts[-1])
        values[name] = v
    return values


def check_declared(metrics: dict, key: str) -> None:
    """The emitted names must be exactly those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = [m["name"] for m in json.load(f)[key]]
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {key} {sorted(declared)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import tracer as tracing

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "work"))
    try:
        boundary = TrainRounds.boundary if args.workload == "train_tiny" else EvalRounds.boundary
        tracer = tracing.Tracer(boundary) if args.trace else None
        if tracer is not None:
            with tracer.active():
                setup_s, pairs, params = run_setup(args.workload, args.seed, work, tracer)
        else:
            setup_s, pairs, params = run_setup(args.workload, args.seed, work)
        if args.workload == "train_tiny":
            rounds = TrainRounds(pairs, params, args.seed)
        else:
            rounds = EvalRounds(pairs, params)
        results, attempted, failed = run_rounds(rounds, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        values = {"setup_s": setup_s,
                  "pairs_per_s": statistics.median(r for r, _ in results),
                  "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        check_declared(values, "end_to_end")
    else:
        values = layer_metrics(tracer, SETUP_REPS[args.workload], results, rounds.extras())
        units = dict(PER_LAYER)
        check_declared(values, "per_layer")
        spans_path = os.path.join(OUT, f"spans_{args.workload}.tsv")
        tracer.write(spans_path, json.dumps({"workload": args.workload, "seed": args.seed,
                                             "environment": env}))
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")

    rates = " ".join(f"{r:.4g}{'*' if t else ''}" for r, t in results)
    print(f"pairs/s per round ({len(results)}, * = traced): {rates}")
    print(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, v in values.items():
        print(f"{name:40s} {v:14.6f} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
