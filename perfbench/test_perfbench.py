"""Fast test of the benchmark itself: every workload at tiny size prints every
named metric, and every correctness check rejects a corrupted output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_named_metric(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed3-trace{trace}.json")
                        .read_text())
    assert record["why"] == next(w["why"] for w in BENCH["workloads"] if w["name"] == workload)
    assert record["environment"]["blas_threads"] >= 1
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert np.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_prep_digest_repeats_across_runs():
    records = []
    for _ in range(2):
        _result(_run("prep", 0, seed=5))
        records.append(json.loads((ROOT / ".perfbench_out" / "prep-seed5-trace0.json")
                                  .read_text())["summary"]["digest"])
    assert records[0] == records[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each check fails on a corrupted output
# ---------------------------------------------------------------------------

def test_gradient_check_rejects_wrong_gradient():
    numeric = {"w": np.array([0.5, -2.0]), "b": np.array([1e-3])}
    assert checks.check_gradients(dict(numeric), numeric)[0]
    bad = dict(numeric, w=np.array([0.5, -2.01]))
    assert not checks.check_gradients(bad, numeric)[0]
    assert not checks.check_gradients(dict(numeric, b=np.array([np.nan])), numeric)[0]


def test_loss_history_check_rejects_drift_and_nan():
    assert checks.check_loss_histories([[1.1], [1.1], [1.1]])[0]
    assert not checks.check_loss_histories([[1.1], [1.1 + 1e-15]])[0]
    assert not checks.check_loss_histories([[float("nan")]])[0]
    assert not checks.check_loss_histories([])[0]


def test_logit_check_rejects_perturbed_logits():
    ref = [np.array([0.3, -1.2, 2.0])]
    assert checks.check_logits([ref[0].copy()], ref)[0]
    assert not checks.check_logits([ref[0] + np.array([0, 1e-6, 0])], ref)[0]
    assert not checks.check_logits([ref[0][:2]], ref)[0]


def test_reference_forward_matches_autodiff_and_sees_a_wrong_kernel():
    sys.path.insert(0, str(ROOT / "src"))
    from stwnn import network

    model = network.build_model(network.NetworkConfig(
        n_classes=3, in_channels=3, block_channels=(2, 4, 8), seed=1))
    sample = np.random.default_rng(0).standard_normal((3, 6, 8, 9))
    got = network.forward(model, sample)[0]
    x = np.ascontiguousarray(sample.transpose(0, 2, 1, 3))
    assert checks.check_logits([got], [checks.reference_logits(model, x)])[0]
    model.blocks[1].conv2_w.values[0, 0, 1, 1, 1] += 0.5
    assert not checks.check_logits([got], [checks.reference_logits(model, x)])[0]


def test_repeatable_and_agreement_checks_reject_changes():
    assert checks.check_repeatable({0: [np.ones(3), np.ones(3)]})[0]
    assert not checks.check_repeatable({0: [np.ones(3), np.array([1, 1, 1 + 1e-12])]})[0]
    assert checks.check_agreements({0: [0.6, 0.6], 1: [1.0]}, 5)[0]
    assert not checks.check_agreements({0: [0.6, 0.8]}, 5)[0]
    assert not checks.check_agreements({0: [0.5]}, 5)[0]
    assert not checks.check_agreements({0: [0.0]}, 5)[0]


def test_prep_checks_reject_bad_exit_bytes_and_digest(tmp_path):
    assert checks.check_exit_codes([0, 0])[0]
    assert not checks.check_exit_codes([0, 1])[0]
    assert checks.check_round_trips([("a.csi1", b"CSI1\x01", b"CSI1\x01")])[0]
    assert not checks.check_round_trips([("a.csi1", b"CSI1\x01", b"CSI1\x02")])[0]
    assert not checks.check_round_trips([])[0]
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "x.vol1").write_bytes(b"VOL1\x00")
    before = checks.tree_digest(tmp_path)
    (tmp_path / "d" / "x.vol1").write_bytes(b"VOL1\x01")
    after = checks.tree_digest(tmp_path)
    assert checks.check_digests([before, before])[0]
    assert not checks.check_digests([before, after])[0]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_counts_typed_errors_per_layer_and_uninstalls():
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from stwnn import volumes
    from stwnn.errors import StwnnError

    original = volumes.stack_channels
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        with pytest.raises(StwnnError):
            volumes.stack_channels([])
    finally:
        uninstall()
    assert tracer.counts == {"volumes.errors": 1}
    assert [s[0] for s in tracer.spans] == ["volumes.stack_channels"]
    assert volumes.stack_channels is original


def test_self_time_subtracts_direct_children():
    import tracing

    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


# each traced item's top-level spans; prep's pass makes two CLI calls and
# then reads the files back
_TOP_LEVEL = {
    "train": lambda names: names == ["training.train"],
    "infer": lambda names: names in (["network.forward"], ["training.shift_consistency"]),
    "prep": lambda names: (names[:2] == ["cli.synth", "cli.segment"]
                           and all(n.startswith("dataio.load_") for n in names[2:])),
}


@pytest.mark.parametrize("workload", sorted(_TOP_LEVEL))
def test_traced_items_own_their_spans_and_untraced_items_record_none(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    bench = workloads.WORKLOADS[workload](3, workloads.TINY, tmp_path)
    bench.setup()
    tracer = tracing.Tracer(getattr(bench, "model", None))
    set_tracing = tracing.switch(tracer)
    marks = []

    def switch(on):
        marks.append((len(tracer.spans), on))
        set_tracing(on)

    try:
        loop = bench.loop(0.01, 4, switch)
    finally:
        set_tracing(False)
        getattr(bench, "close", lambda: None)()
    marks.append((len(tracer.spans), None))
    assert loop.traced_items == sum(on for _, on in marks[:-1]) >= 2
    for (start, on), (end, _) in zip(marks, marks[1:]):
        top = [s[0] for s in tracer.spans[start:end] if s[3] < start]
        if on:
            assert _TOP_LEVEL[workload](top), top
            assert all(s[3] >= start for s in tracer.spans[start:end] if s[3] >= 0)
        else:
            assert end == start, tracer.spans[start:end]
