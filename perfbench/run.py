"""Benchmark runner for sclkit.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--quick]

Run from the repository root.  Workloads are defined in
``perfbench/workloads.py``: ``scl_chains``, ``ambient_certify`` and
``fold_necklaces``; ``all`` runs the three in turn.  Every process is
closed-loop, single-process and single-threaded.

``--trace 0`` reports the end-to-end metrics, each timed with tracing off:

* ``wall_s``: seconds for one pass over the workload's timed set (median of
  the passes that fit in ``--seconds``);
* ``small_tier_s``: seconds for one pass over the small tier alone (median
  of the small-tier passes, which run between the instances of the full
  passes, spread over the run);
* ``setup_s``: importing sclkit and building the inputs in a fresh process
  (median of several processes, after one warm-up that writes bytecode);
* ``peak_rss_mb``: peak resident memory of the measuring process.

The three times are calibrated for the host's speed (``hostspeed.py``):
they read as seconds on a host where a fixed reference kernel takes 4 ms.
The raw seconds are printed next to them and kept in the result file.

``fail_frac`` (failed instances over attempted ones, per full pass plus the
known-failing probes) is printed with them.  ``--trace 1`` runs the full
passes in a second process with every traced sclkit function wrapped and
reports the per-layer metrics of one set-up plus one pass (times in raw
seconds), with ``bench.trace_overhead_frac`` against an untraced process of
the same run.  Spans and results go to ``perfbench/out/``.  ``--quick``
runs one pass of each small tier, with its output checks, instead of
timing for ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the timed instances; the known-failing probes appear only
in ``fail_frac``.  The runner exits non-zero, without that line, when the
sclkit sources are missing, a process fails, or Python runs with ``-O``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.child import refuse_optimize  # noqa: E402
from perfbench.tracing import LAYER_METRICS  # noqa: E402
from perfbench.workloads import BUILDERS  # noqa: E402

WORKLOADS = tuple(BUILDERS)
SETUP_PROCESSES = 11
TIME_LIMIT = 170.0  # seconds for one workload's run, with every process in it


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"out of time before {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} process timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sclkit_identity():
    """The commit of the checkout, if it is a git work tree, and a hash of
    the sclkit sources, which identifies them either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sclkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref[5:]):
                            commit = line.split()[0]
        else:
            commit = ref
    return commit, digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, quick):
    """Run one workload; returns (result line dict, report dict)."""
    deadline = time.monotonic() + TIME_LIMIT
    quick_passes = 1 if quick else 0
    if not trace:
        run_child(["setup", name], deadline)  # warm-up: compiles bytecode
        setups = [run_child(["setup", name], deadline) for _ in range(1 if quick else SETUP_PROCESSES)]
        res = run_child(["measure", name, seed, seconds, 1, quick_passes], deadline)
        metrics = {
            "wall_s": metric(statistics.median(res["full"]), "s"),
            "small_tier_s": metric(statistics.median(res["small"] or res["full"]), "s"),
            "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        raw = {
            "wall_s": statistics.median(res["raw_full"]),
            "small_tier_s": statistics.median(res["raw_small"] or res["raw_full"]),
            "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        }
        passes = {
            "full": res["full"],
            "small": res["small"],
            "setup": [s["setup_s"] for s in setups],
            "raw_full": res["raw_full"],
            "raw_small": res["raw_small"],
            "raw_setup": [s["raw_setup_s"] for s in setups],
        }
    else:
        spans_file = HERE / "out" / f"spans-{name}-seed{seed}.json"
        plain = run_child(["measure", name, seed, seconds / 2, 0, quick_passes], deadline)
        res = run_child(["trace", name, seed, seconds / 2, quick_passes, spans_file], deadline)
        overhead = statistics.median(res["full"]) / statistics.median(plain["full"]) - 1
        layers = dict(res["layers"], **{"bench.trace_overhead_frac": overhead, "bench.fail_frac": res["fail_frac"]})
        metrics = {m: metric(layers.get(m, 0), unit) for m, unit, _ in LAYER_METRICS}
        raw = {}
        passes = {
            "full": res["full"],
            "raw_full": res["raw_full"],
            "untraced_full": plain["full"],
            "spans_file": str(spans_file.relative_to(ROOT)),
        }
    line = {
        "correct": res["failed"] == 0 and res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "raw": raw,
        "passes": passes,
        "fail_frac": res["fail_frac"],
        "errors": res["errors"],
        "probes": res["probes"],
        "counts_repeat": res.get("counts_repeat"),
    }
    return line, report


def print_report(line, report):
    print(f"== {report['workload']}")
    for name, m in line["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {report['fail_frac']:.6g} ratio")
    for name, value in report["raw"].items():
        print(f"  {name + ' (raw, uncalibrated)':40s} {value:.6g} s")
    full = report["passes"]["raw_full"]
    print(f"  passes: {len(full)} full; {line['attempted']} instances attempted, {line['failed']} failed")
    for err in report["errors"]:
        print(f"  FAILED {err}")
    for probe, rec in report["probes"].items():
        outcome = "; ".join(rec["errors"]) if rec["errors"] else "succeeded"
        print(f"  probe {probe}: failed {rec['failed']} of {rec['attempted']}: {outcome}")
    if report["counts_repeat"] is False:
        print("  WARNING: per-layer counts differed between traced passes")


def main():
    refuse_optimize()
    parser = argparse.ArgumentParser(description="sclkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass of each small tier, checked")
    args = parser.parse_args()
    if not (ROOT / "src" / "sclkit" / "__init__.py").is_file():
        sys.exit("perfbench: src/sclkit not found; run from a sclkit checkout")

    commit, src_hash = sclkit_identity()
    meta = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sclkit_commit": commit,
        "sclkit_src_sha256": src_hash,
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines, reports = [], []
    for name in names:
        try:
            line, report = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
        except ChildFailed as exc:
            sys.exit(f"perfbench: {name}: {exc}")
        print_report(line, report)
        lines.append(line)
        reports.append(report)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"result-{tag}.json").write_text(
        json.dumps({"meta": meta, "results": [dict(r, **l) for l, r in zip(lines, reports)]}, indent=1)
    )
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {
            "correct": all(l["correct"] for l in lines),
            "attempted": sum(l["attempted"] for l in lines),
            "failed": sum(l["failed"] for l in lines),
            "metrics": {f"{n}.{k}": v for n, l in zip(names, lines) for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
