"""Run the repository benchmark: auth / identify / mixed / sweep.

Run from the repository root::

    python3 e2ebench/run.py --workload auth --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all            # every workload, one process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  The
lines before it are a human-readable report: host stamp, every metric
with its unit and sample count, and each correctness check.  The exit
code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("auth", "identify", "mixed", "sweep")

#: Setups per timed run; setup_s is their median.  The first set-up of a
#: process runs slower even after the warm-up (auth: 4.4 s against 3.5 s),
#: so the cheap set-ups are repeated more; identify and mixed (about 13 s
#: each) can afford only two.
SETUP_REPEATS = {"auth": 3, "identify": 2, "mixed": 2, "sweep": 5}

#: Where each workload's generic end-to-end metric comes from.  The
#: names on the right are the workload's own (printed in the report).
SOURCES = {
    "auth": {"ops_per_s": "auth_per_s", "p50_ms": "auth_p50_ms", "tail_ms": "auth_p90_ms"},
    "identify": {"ops_per_s": "identify_per_s", "p50_ms": "identify_p50_ms",
                 "tail_ms": "identify_sat_p90_ms"},
    "mixed": {"ops_per_s": "auth_per_s", "p50_ms": "identify_p50_ms",
              "tail_ms": "identify_p95_ms"},
    "sweep": {"ops_per_s": "sweep_soft_per_s", "p50_ms": "sweep_call_p50_ms",
              "tail_ms": "sweep_call_p75_ms"},
}


def host_stamp() -> dict:
    # platform.platform() forks a helper process; asked before numpy is
    # imported, the fork is small and stays out of the children's peak RSS.
    host = platform.platform()
    import numpy
    from repro.kernels import get_backend

    return {
        "nproc": os.cpu_count(),
        "platform": host,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_backend().name,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import workloads
    from spans import Tracer

    workloads.warm_up()
    tracer = Tracer() if trace else None
    repeats = 1 if trace else SETUP_REPEATS[name]
    if tracer is not None and name != "sweep":
        tracer.install()
    try:
        if name == "auth":
            return workloads.run_auth(seed, seconds, repeats, tracer)
        if name == "sweep":
            return workloads.run_sweep(seed, seconds, repeats, tracer)
        return workloads.run_identify(seed, seconds, repeats, tracer, mixed=name == "mixed")
    finally:
        if tracer is not None:
            tracer.uninstall()


def reported_metrics(outcome, spec: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names, under their generic names."""
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            value, _ = outcome.layers.get(entry["name"], (0.0, entry["unit"]))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        return metrics
    sources = SOURCES[outcome.workload]
    for entry in spec["end_to_end"]:
        metric = outcome.metrics[sources.get(entry["name"], entry["name"])]
        metrics[entry["name"]] = {"value": metric.value, "unit": entry["unit"]}
    return metrics


def report(outcome, seed: int, trace: bool) -> None:
    print(f"# workload {outcome.workload}  seed {seed}  trace {int(trace)}  "
          f"attempted {outcome.attempted}  failed {outcome.failed}")
    for name, metric in outcome.metrics.items():
        print(f"#   {name:<24} {metric.value:>14.4f} {metric.unit:<6} n={metric.samples}")
    for name, (value, unit) in sorted(outcome.layers.items()):
        print(f"#   {name:<38} {value:>14.6g} {unit}")
    for name, ok, detail in outcome.checks:
        print(f"#   check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
    sys.path[:0] = [str(root / "src"), str(HERE)]

    print("# host " + json.dumps(host_stamp(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, seconds, bool(args.trace))
        report(outcome, args.seed, bool(args.trace))
        outcomes.append(outcome)

    if len(outcomes) == 1:
        metrics = reported_metrics(outcomes[0], spec, bool(args.trace))
    else:
        metrics = {f"{o.workload}.{k}": v for o in outcomes
                   for k, v in reported_metrics(o, spec, bool(args.trace)).items()}
    correct = all(o.correct for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
