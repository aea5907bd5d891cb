"""Tests of the benchmark itself, on the small tiers (quick mode).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, tracing, workloads
from perfbench.hostspeed import HostSpeed

child.add_paths()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(workloads.BUILDERS)
PROBE_ERRORS = {
    "double_fold_fixture": "MoveError: no link connection applies: separator index out of range",
    "necklace(m=1)": "MoveError: component remains folded without an eligible fold pair",
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_quick_pass_checks_every_output(name):
    wl, full, small, outcomes = child.measure(name, seed=0, seconds=0, quick=1)
    summary = outcomes.summary()
    n_small = sum(inst.small for inst in wl.instances)
    assert (len(full), small) == (1, [])
    assert summary["errors"] == []
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (n_small, 0, 0)
    probes = {p: rec["errors"] for p, rec in summary["probes"].items()}
    assert probes == {p: [e] for p, e in PROBE_ERRORS.items()} if wl.probes else probes == {}
    assert summary["fail_frac"] == len(probes) / (n_small + len(probes))


def test_a_wrong_output_fails_its_check():
    wl = workloads.build("scl_chains")
    inst = next(i for i in wl.instances if i.name == "[a,b]^2")
    inst.check = workloads.build("scl_chains").instances[0].check  # expects 1/2, gets 1
    outcomes = child.Outcomes()
    outcomes.timed(inst, [], full_pass=True)
    assert (outcomes.failed, outcomes.wrong) == (1, 1)
    assert outcomes.errors[0].startswith("[a,b]^2: CheckFailed: scl 1 != 1/2")


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_passes(name):
    import sclkit.exactlin
    import sclkit.homology
    import sclkit.surfaces

    result, tracer = child.traced_run(name, seed=0, seconds=0, quick=2)
    assert (result["failed"], result["wrong"]) == (0, 0)
    spans = tracer.spans
    assert spans and all(s[5] is not None for s in spans)
    for s in spans:
        if s[1] is not None:
            assert spans[s[1]][3] == s[3], f"span {s} has its parent in another instance"

    for r, wall in enumerate(result["raw_full"]):
        tags = {s[3] for s in spans if s[3].startswith(f"p{r}:")}
        totals = tracer.group_totals(tags)
        self_time = sum(v for k, v in totals.items() if k.endswith(".s"))
        assert 0 < self_time <= wall

    assert result["counts_repeat"]
    layers = result["layers"]
    if name == "scl_chains":
        assert layers["lp.pivots"] > 0 and layers["scl.lp_path_frac"] > 0
        assert "homology.homology.calls" not in layers
    elif name == "ambient_certify":
        assert layers["scl.lp_path_frac"] == 0 and layers["rewrite.moves"] == 0
        assert layers["exactlin.rank_q.calls"] > 0 and layers["complexes.barycentric.calls"] > 0
    else:
        assert layers["rewrite.moves"] > 0 and layers["complexes.link_graph.calls"] > 0
        assert layers["rewrite.connect_link.useful_frac"] > 0
        assert "lp.solve_lp.calls" not in layers

    # the originals are back once the trace ends
    assert sclkit.homology.rank_q is sclkit.exactlin.rank_q
    assert not hasattr(sclkit.exactlin.rank_q, "__wrapped__")
    assert not hasattr(sclkit.surfaces.AdmissibleSurface.__init__, "__wrapped__")


def test_benchmark_file_names_what_the_runner_reports():
    import json

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    layers = {m["name"].split(".")[0] for m in bench["per_layer"]}
    assert layers == set(tracing.TRACED) - {"fixtures"} | {"bench"}
    line = json.loads(_run(["perfbench/run.py", "--workload", "fold_necklaces", "--quick"], ROOT).stdout.splitlines()[-1])
    assert line["correct"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_calibration_uses_the_samples_around_an_interval():
    speed = HostSpeed()
    speed.times, speed.speeds = [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 8.0, 16.0]
    # the last sample before 1.5, the one inside, and the first after 2.5
    assert speed.calibrated(1.5, 2.5, 3.0) == 3.0 * (2.0 + 4.0 + 8.0) / 3


def test_sampling_leaves_its_own_time_out_of_intervals():
    import signal
    import time

    speed, record = HostSpeed(), []
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        with speed.interval(record):
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    start, stop, seconds = record[0]
    inside = sum(start <= t <= stop for t in speed.times)
    assert inside >= 2 and seconds < stop - start


def _run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=60, env=env
    )


def test_refuses_to_run_optimized():
    base = ["perfbench/run.py", "--workload", "scl_chains", "--quick"]
    flagged = _run(["-O", *base], ROOT)
    env = dict(os.environ, PYTHONOPTIMIZE="1")
    from_env = _run(base, ROOT, env)
    for proc in (flagged, from_env):
        assert proc.returncode != 0
        assert "PYTHONOPTIMIZE" in proc.stderr
        assert "{" not in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["perfbench/run.py", "--workload", "scl_chains", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
