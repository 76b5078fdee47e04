"""The benchmark's view of the program: the names its tracer wraps exist,
tracing does not change gradients or kink patterns, and the benchmark command
runs two workloads to a correct result, each traced as well, so both guard
the tracer's reading of a conv input as (channels, height, width).

``perfbench/tracer.py`` is loaded from its file path, not through
``sys.path``, because ``perfbench/corpus.py`` would shadow ``tests/corpus.py``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from siamverify import Graph, Tensor, ops
from siamverify.gradcheck import _kink_signature

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist(tracer):
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_wrapped_ops_exist(tracer):
    for name in tracer.OPS:
        assert callable(getattr(ops, name, None)), f"ops.{name}"


def _relu_pool_step():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 4, 4)))
    k = Tensor(rng.standard_normal((2, 2, 3, 3)))
    b = Tensor(rng.standard_normal(2))
    g = Graph([x, k, b])
    y = ops.maxpool2(g, ops.relu(g, ops.conv2d(g, x, k, b)))
    loss = ops.tsum(g, ops.mul(g, y, y))
    sig = _kink_signature(g)
    grads = g.backward(loss)
    return sig, [grads[t] for t in (x, k, b)]


def test_traced_step_matches_untraced(tracer):
    sig_plain, grads_plain = _relu_pool_step()
    t = tracer.Tracer(boundary="tensor.backward")
    with t.active():
        sig_traced, grads_traced = _relu_pool_step()
    names = {span[0] for span in t.spans}
    assert {"ops.relu", "ops.maxpool2.bwd", "tensor.backward"} <= names
    assert len(sig_plain) == len(sig_traced) == 2
    for a, b in zip(sig_plain, sig_traced):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(grads_plain, grads_traced):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("workload,trace", [
    pytest.param("train_tiny", "0", id="train_tiny"),
    pytest.param("eval_overall", "0", id="eval_overall"),
    # traced rounds replace Graph.record and Graph.backward with the tracer's wrappers
    pytest.param("train_tiny", "1", id="train_tiny-trace"),
    pytest.param("eval_overall", "1", id="eval_overall-trace"),
])
def test_benchmark_command_runs(workload, trace):
    # eval_vgg_unshared is left out: 1.2 GB and seconds per pair
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
