"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

The smoke runs go through ``run.py`` exactly as the benchmark is invoked;
the other tests call the child's measuring loop in-process at smoke size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
from compare import verdict  # noqa: E402
from workloads import WORKLOADS, Chain, Fanout, GenomesFull  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict[int, list[dict]]:
    """One smoke run of every workload, untraced and traced."""
    out = {}
    for trace in (0, 1):
        path = tmp_path_factory.mktemp("e2e") / f"smoke-{trace}.json"
        proc = _run("--smoke", "--seconds", "0", "--trace", str(trace), "-o", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == RESULT_KEYS
        out[trace] = json.loads(path.read_text())["results"]
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(smoke, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    results = smoke[trace]
    assert [r["workload"] for r in results] == list(WORKLOADS)
    for result in results:
        assert result["correct"], result["errors"]
        assert result["failed"] == 0 and result["attempted"] >= child.MIN_UNITS
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_traced_layers_show_where_each_workload_spends_time(smoke):
    by_name = {r["workload"]: r["metrics"] for r in smoke[1]}
    for name, metrics in by_name.items():
        for layer in ("obs", "profile", "sweep"):
            busy = metrics[f"{layer}.self_s"]["value"] > 0
            assert busy == (name == "fig13-sweep"), (name, layer)
        assert metrics["trace.overhead_ratio"]["value"] > 1


def test_perturbed_makespan_counts_as_failed(tmp_path):
    workload = Chain(smoke=True)
    inputs = workload.setup(0)
    outcome, errors = workload.inspect(workload.unit(inputs, tmp_path), inputs)
    assert errors == []
    reference = outcome.to_reference(workload, 0)

    clean = child.measure(workload, 0, 0.0, tmp_path, reference=reference)
    assert clean["failed"] == 0

    reference["makespans"][0] *= 1 + 1e-6
    bad = child.measure(workload, 0, 0.0, tmp_path, reference=reference)
    assert bad["failed"] == bad["attempted"] > 0
    assert "makespan" in bad["errors"][0]


@pytest.mark.parametrize("cls", [Fanout, Chain])
def test_seed_changes_synthetic_inputs_deterministically(cls):
    def fingerprint(seed):
        _, workflow, _ = cls(smoke=True).setup(seed)
        return [(t.flops, [f.size for f in t.inputs + t.outputs]) for t in workflow]

    assert fingerprint(0) == fingerprint(0)
    assert fingerprint(0) != fingerprint(1)


def test_paper_workloads_ignore_the_seed():
    workload = GenomesFull(smoke=True)
    a, b = workload.setup(0), workload.setup(7)
    assert [(t.name, t.flops) for t in a] == [(t.name, t.flops) for t in b]


@pytest.mark.parametrize("cls", [GenomesFull, Chain])
def test_traced_counts_repeat_exactly(cls, tmp_path):
    def counts():
        result = child.measure(cls(smoke=True), 1, 0.0, tmp_path, trace=True)
        assert result["errors"] == []
        return {k: v for k, v in result["layers"].items() if isinstance(v, int)}

    first = counts()
    assert first["des.events"] > 0 and first["network.transfers"] > 0
    assert counts() == first


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert verdict(base, base, "lower", 0.1)[0] == "no-worse"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "regressed"
    assert verdict(base, [v * 0.7 for v in base], "lower", 0.1)[0] == "improved"
    assert verdict(base, [v * 0.7 for v in base], "higher", 0.1)[0] == "regressed"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chain-10k", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
