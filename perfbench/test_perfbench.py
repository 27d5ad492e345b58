"""Self-tests of the benchmark.  They take several minutes (hunt-roundtrip
runs at full size), so they live here rather than in the tier-1 suite:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit_and_nothing_fails(workload, trace):
    proc, lines = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    report = json.loads((HERE / "out" / f"result-{workload}-seed0-trace{trace}.json").read_text())
    assert report["gate"]["failed_ops_ratio"] == 0
    assert report["environment"]["tanglekit_from"] == "src on sys.path"


def test_a_wrong_pinned_value_is_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "widths", {"p3": 1, "c4": 3, "k4": 3})
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "theorem-sweep", "--seed", "0", "--seconds", "0.1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED: pinned width of c4" in out.getvalue()


def test_seed_zero_is_the_standard_corpus_and_other_seeds_relabel_it():
    import tanglekit as tk

    def key(systems):
        return [(s.name, tk.system_descriptor(s)) for s in systems]

    standard = tk.standard_corpus()
    assert key(workloads.corpus_for(tk, 0)) == key(standard)
    relabelled = workloads.corpus_for(tk, 1)
    assert key(relabelled) != key(standard)
    assert key(relabelled[:8]) == key(standard[:8])
    for a, b in zip(relabelled, standard):
        assert (a.name, a.n) == (b.name, b.n)
        assert sorted(a.table().tolist()) == sorted(b.table().tolist())


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _bench("--workload", "theorem-sweep", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
