"""One benchmark process: set-up timing, an untraced measurement, or a
traced run.  ``run.py`` starts it and reads the JSON object it prints last.

    python3 perfbench/child.py setup   <workload>
    python3 perfbench/child.py measure <workload> <seed> <seconds> <small 0|1> <quick passes>
    python3 perfbench/child.py trace   <workload> <seed> <seconds> <quick passes> <spans file>
"""

import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def add_paths():
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def refuse_optimize():
    """The library's result checks are asserts; -O would time another program.

    ``sys.flags.optimize`` is set by ``-O`` and by PYTHONOPTIMIZE alike.
    """
    if sys.flags.optimize:
        sys.exit("perfbench: refusing to run under python -O or PYTHONOPTIMIZE: "
                 "sclkit's result checks are assert statements")


def setup_seconds(workload):
    """Import sclkit and build every input of ``workload`` in this process;
    returns (raw seconds, calibrated seconds)."""
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    record = []
    speed.sample()
    with speed.interval(record):
        from perfbench import workloads

        workloads.build(workload)
    speed.sample()
    start, end, raw = record[0]
    return raw, speed.calibrated(start, end, raw)


# -- passes --------------------------------------------------------------------


class Outcomes:
    """Attempts, failures and error texts over the passes of one process."""

    def __init__(self, speed=None):
        from perfbench.hostspeed import HostSpeed

        self.speed = speed or HostSpeed()  # times the runs; samples only if sampling
        self.attempted = 0
        self.failed = 0
        self.full_attempted = 0  # in full passes only, for fail_frac
        self.full_failed = 0
        self.wrong = 0  # outputs that came back and failed their check
        self.errors = []
        self.probes = {}  # probe name -> {"attempted", "failed", "errors"}

    def run(self, inst, record, tracer=None, tag=None):
        """Attempt one instance, appending its timed interval to ``record``;
        returns a failure text or None."""
        from perfbench.workloads import CheckFailed

        arg = _untraced(tracer, inst.prepare)
        if tracer is not None:
            tracer.instance = f"{tag}:{inst.name}"
        try:
            with self.speed.interval(record):
                out = inst.run(arg)
        except Exception as exc:  # a failing instance is counted, not fatal
            return f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.instance = "between"
        try:
            _untraced(tracer, lambda: inst.check(arg, out))
        except CheckFailed as exc:
            self.wrong += 1
            return f"CheckFailed: {exc}"
        return None

    def timed(self, inst, record, full_pass, tracer=None, tag=None):
        error = self.run(inst, record, tracer, tag)
        self.attempted += 1
        self.full_attempted += full_pass
        if error is not None:
            self.failed += 1
            self.full_failed += full_pass
            self.errors.append(f"{inst.name}: {error}")

    def probe(self, inst, tracer=None, tag=None):
        error = self.run(inst, [], tracer, tag)
        rec = self.probes.setdefault(inst.name, {"attempted": 0, "failed": 0, "errors": []})
        rec["attempted"] += 1
        if error is not None:
            rec["failed"] += 1
            if error not in rec["errors"]:
                rec["errors"].append(error)

    def summary(self):
        # per round: the full pass and the probes, so the ratio does not
        # depend on how many small-tier passes fitted in the time
        probe_attempted = sum(p["attempted"] for p in self.probes.values())
        probe_failed = sum(p["failed"] for p in self.probes.values())
        total = self.full_attempted + probe_attempted
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "errors": self.errors,
            "probes": self.probes,
            "fail_frac": (self.full_failed + probe_failed) / total if total else 0.0,
        }


def _untraced(tracer, fn):
    with tracer.paused() if tracer is not None else nullcontext():
        return fn()


def raw_seconds(record):
    return sum(seconds for _, _, seconds in record)


def run_pass(instances, rng, outcomes, full_pass, tracer=None, tag=None, between=None):
    """Time every instance once, in a seed-shuffled order.

    Returns the pass as a list of ``(start, end, seconds)`` per instance;
    ``between(seconds so far)`` runs, untimed, after each instance.
    """
    import gc

    order = list(instances)
    rng.shuffle(order)
    gc.collect()
    record = []
    for inst in order:
        outcomes.timed(inst, record, full_pass, tracer, tag)
        if between is not None:
            between(raw_seconds(record))
    return record


# Share of the timed seconds that goes to small-tier passes.  They run
# between the instances of the full passes, spread over the whole run, so
# that they meet the host in the same states as the full passes do.
SMALL_SHARE = 0.25


def measure(workload, seed, seconds, small=True, quick=0, tracer=None, speed=None):
    """Run full passes, with small-tier passes among them when ``small``.

    A further full pass starts only while it is expected to end, with its
    share of small-tier passes, within ``seconds``; there is at least one
    pass of each kind.  Known-failing probes are attempted, untimed, after
    every full pass.  ``quick`` > 0 runs that many passes over the small
    tier alone, and nothing else.  Returns the workload, the full and the
    small passes (each a list of timed intervals) and the outcomes.
    """
    import random
    import statistics

    from perfbench import workloads

    wl = workloads.build(workload)
    rng = random.Random(seed)
    outcomes = Outcomes(speed)
    small_set = [inst for inst in wl.instances if inst.small]
    full, small_passes = [], []

    def top_up(pending):
        spent_full = sum(map(raw_seconds, full)) + pending
        while small and sum(map(raw_seconds, small_passes)) < SMALL_SHARE * spent_full:
            small_passes.append(run_pass(small_set, rng, outcomes, False))

    def full_pass(instances, between=None):
        full.append(run_pass(instances, rng, outcomes, True, tracer, f"p{len(full)}", between))
        for inst in wl.probes:
            outcomes.probe(inst, tracer, f"probe{len(full) - 1}")

    if quick:
        for _ in range(quick):
            full_pass(small_set)
        return wl, full, small_passes, outcomes

    deadline = time.perf_counter() + seconds
    while not full or (
        time.perf_counter() + statistics.median(map(raw_seconds, full)) * (1 + SMALL_SHARE * small) <= deadline
    ):
        full_pass(wl.instances, top_up)
    if small and not small_passes:
        small_passes.append(run_pass(small_set, rng, outcomes, False))
    return wl, full, small_passes, outcomes


def _calibrated(speed, passes):
    return [sum(speed.calibrated(*interval) for interval in p) for p in passes]


def child_measure(workload, seed, seconds, small, quick):
    """Untraced passes, in calibrated and in raw seconds."""
    import resource

    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    with speed.sampling():
        _, full, small_passes, outcomes = measure(workload, seed, seconds, small, quick, speed=speed)
    return {
        "full": _calibrated(speed, full),
        "small": _calibrated(speed, small_passes),
        "raw_full": [raw_seconds(p) for p in full],
        "raw_small": [raw_seconds(p) for p in small_passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **outcomes.summary(),
    }


def traced_run(workload, seed, seconds, quick):
    """Trace the set-up and the full passes; returns (result, tracer).

    Span times are raw seconds without the host-speed samples; the passes
    are also given in calibrated seconds, to compare with an untraced run.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import Tracer, layer_metrics

    speed = HostSpeed()
    tracer = Tracer(clock=lambda: time.perf_counter() - speed.spent)
    with speed.sampling(), tracer.installed():
        _, full, _, outcomes = measure(workload, seed, seconds, False, quick, tracer, speed)
    passes = [{s[3] for s in tracer.spans if s[3].startswith(f"p{r}:")} for r in range(len(full))]
    layers, counts_repeat = layer_metrics(tracer, passes)
    result = {
        "full": _calibrated(speed, full),
        "raw_full": [raw_seconds(p) for p in full],
        "layers": layers,
        "counts_repeat": counts_repeat,
        **outcomes.summary(),
    }
    return result, tracer


def child_trace(workload, seed, seconds, quick, spans_file):
    import json

    result, tracer = traced_run(workload, seed, seconds, quick)
    path = Path(spans_file)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.to_json()))
    return result


def main(argv):
    refuse_optimize()
    add_paths()
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        raw, calibrated = setup_seconds(workload)
        result = {"setup_s": calibrated, "raw_setup_s": raw}
    elif mode == "measure":
        seed, seconds, small, quick = int(argv[2]), float(argv[3]), argv[4] == "1", int(argv[5])
        result = child_measure(workload, seed, seconds, small, quick)
    elif mode == "trace":
        seed, seconds, quick = int(argv[2]), float(argv[3]), int(argv[4])
        result = child_trace(workload, seed, seconds, quick, argv[5])
    else:
        sys.exit(f"unknown mode {mode!r}")
    import json

    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
