#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src/``.  One
process sets the workload up from ``--seed`` (the library receives only the
generated inputs), then runs repetitions of the workload's fixed work until
``--seconds`` of measuring are used.  Each repetition runs in a fresh process
forked from the set-up one, so every repetition starts cold: no cache, memo
or lazily built object survives from one to the next.  One client drives each
workload in a closed loop; every call is synchronous and in-process.

The first repetition's outputs are checked after its timed phase; every
later repetition must reproduce them bitwise.  An op that raised, failed its
check or differs counts in ``failed``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics: self time per span (spans come only from this package,
around its calls into the library's public functions), counters, the
workload's own figures from the untraced repetitions, and the tracing
overhead (traced minus untraced ``run_s``).  A per-layer name that belongs to
another workload reads 0: that layer is not called.

The last line of standard output is the JSON result; a full report with the
environment stamp (and, traced, every span) goes to ``--out``.

A workload is a module of this package providing ``setup(seed, tiny)`` (the
inputs, with their generating ``params``), ``run(inputs, tracer)`` (one
repetition's timed work, returning a ``common.Rep``), ``op_output(value)``
(what of an op's output must repeat bitwise), ``check(inputs, rep)`` and
``replay(inputs, rep, tracer)`` (failed op index -> reason), ``UNITS`` (its
own figures) and, optionally, ``summarize(rep)``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, inputs, executors

import argparse
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("campaign", "service", "fleet", "sweep")
#: Set-ups per run: this process plus fresh interpreters; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A repetition that runs longer than this is killed and its ops count as failed.
REP_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--out", default=str(ROOT / ".perfbench"), help="report directory")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load(name: str, seed: int, tiny: bool):
    """Import the library and the workload, then generate the inputs: the timed set-up."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the library is missing ({src / 'repro'} not found)")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")
    module = importlib.import_module(f"perfbench.{name}")
    return module, module.setup(seed, tiny=tiny)


def setup_sample(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter running this same set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S, check=True
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def child_rep(module, inputs, traced: bool, checked: bool) -> dict:
    """One repetition, inside the forked process."""
    from perfbench.tracer import Tracer

    tracer = Tracer(enabled=traced)
    start = time.perf_counter()
    rep = module.run(inputs, tracer)
    run_s = time.perf_counter() - start
    if hasattr(module, "summarize"):
        rep.metrics.update(module.summarize(rep))
    rep.ops.seal(module.op_output)
    check_start = time.perf_counter()
    failures = module.check(inputs, rep) if checked else {}
    check_s = time.perf_counter() - check_start
    replayed = module.replay(inputs, rep, tracer) if traced else {}
    return {
        "traced": traced,
        "run_s": run_s,
        "check_s": check_s,
        "metrics": rep.metrics,
        "ops": rep.ops.records,
        "check": {str(i): reason for i, reason in failures.items()},
        "replay": {str(i): reason for i, reason in replayed.items()},
        "self_s": tracer.self_times(),
        "span_counts": tracer.span_counts(),
        "counts": tracer.counts,
        "spans": tracer.spans,
    }


def fork_rep(module, inputs, traced: bool, checked: bool) -> dict:
    """Run one repetition in a child forked from the set-up process."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the parent's code: it reports
        # whatever happened through the pipe and leaves with os._exit.
        os.close(read_fd)
        code = 0
        try:
            signal.alarm(REP_TIMEOUT_S)
            payload = child_rep(module, inputs, traced, checked)
        except BaseException as exc:  # reported to the parent, then the child exits
            payload, code = {"crash": f"{type(exc).__name__}: {exc}"}, 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode())
        finally:
            os._exit(code)
    os.close(write_fd)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        payload = json.loads(data)
    except ValueError:
        return {"crash": f"repetition process ended (wait status {status}) without a result"}
    # CPU seconds of the repetition process and its workers, checks included.
    payload["cpu_user_s"] = after.ru_utime - before.ru_utime
    payload["cpu_sys_s"] = after.ru_stime - before.ru_stime
    return payload


def run_reps(module, inputs, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` of measuring are used; traced ones alternate."""
    reps: list[dict] = []
    walls: list[float] = []
    measured = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        started = time.perf_counter()
        payload = fork_rep(module, inputs, traced=traced, checked=not reps)
        wall = time.perf_counter() - started - payload.get("check_s", 0.0)
        reps.append(payload)
        walls.append(wall)
        measured += wall
        missing_traced = trace and not any(r.get("traced") for r in reps)
        # Stop where the measured time lands nearest the budget.
        if not missing_traced and measured + statistics.median(walls) / 2 > seconds:
            return reps


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """``attempted``, ``failed`` and the first failure reasons, over every repetition."""
    reference = reps[0]
    ref_ops = reference.get("ops", [])
    ref_check = reference.get("check", {})
    attempted = failed = 0
    reasons: list[str] = []
    for k, rep in enumerate(reps):
        if "crash" in rep:
            n = max(1, len(ref_ops))
            attempted, failed = attempted + n, failed + n
            reasons.append(f"repetition {k}: {rep['crash']}")
            continue
        for i, record in enumerate(rep["ops"]):
            attempted += 1
            reason = record["error"] or rep["replay"].get(str(i)) or ref_check.get(str(i))
            if reason is None and (i >= len(ref_ops) or record["digest"] != ref_ops[i]["digest"]):
                reason = "output differs from the first repetition"
            if reason:
                failed += 1
                if len(reasons) < 20:
                    reasons.append(f"repetition {k} op {i} ({record['name']}): {reason}")
    return attempted, failed, reasons


def median_of(reps: list[dict], key: str) -> dict[str, float]:
    names = sorted({name for rep in reps for name in rep[key]})
    return {name: statistics.median(rep[key].get(name, 0.0) for rep in reps) for name in names}


def op_ms(rep: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for record in rep["ops"]:
        totals[record["name"]] = totals.get(record["name"], 0.0) + record["ms"]
    return totals


def spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (None under two samples)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    module, inputs = load(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from perfbench.stamp import environment

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    reps = run_reps(module, inputs, args.seconds, bool(args.trace))
    attempted, failed, reasons = tally(reps)
    good = [rep for rep in reps if "crash" not in rep]
    untraced = [rep for rep in good if not rep["traced"]]
    traced = [rep for rep in good if rep["traced"]]
    run_values = [rep["run_s"] for rep in untraced]
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(run_values) if run_values else float("nan"),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    own = median_of(untraced, "metrics")

    report: dict = {
        "workload": args.workload,
        "end_to_end": end_to_end,
        "workload_metrics": {name: [value, module.UNITS[name]] for name, value in own.items()},
        # Per repetition: milliseconds spent in each op name.
        "op_ms": [op_ms(rep) for rep in untraced],
        "fail_share": failed / attempted,
        "failures": reasons,
    }
    if args.trace:
        self_s, counts = median_of(traced, "self_s"), median_of(traced, "counts")
        traced_run_s = statistics.median(r["run_s"] for r in traced) if traced else float("nan")
        overhead = traced_run_s - end_to_end["run_s"]
        layer_values = {**self_s, **counts, "trace.overhead_s": overhead}
        layer_values.update({f"{args.workload}.{name}": value for name, value in own.items()})
        metrics = {
            m["name"]: {"value": layer_values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared["per_layer"]
        }
        report["per_layer"] = {
            "self_s": self_s,
            "span_counts": median_of(traced, "span_counts"),
            "counts": counts,
            "trace_overhead_s": overhead,
            "untraced_run_s": end_to_end["run_s"],
            "traced_run_s": [r["run_s"] for r in traced],
        }
        report["spans"] = [r["spans"] for r in traced]
    else:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    report["stamp"] = {
        **environment(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "repeats": len(untraced),
        "run_s_values": run_values,
        "cpu_user_s_values": [rep["cpu_user_s"] for rep in untraced],
        "cpu_sys_s_values": [rep["cpu_sys_s"] for rep in untraced],
        "run_s_spread": spread(run_values),
        "setup_s_values": setup_samples,
        # SHA-256 of the generated parameters, independent of repro.cache.
        "workload_digest": hashlib.sha256(
            json.dumps(inputs["params"], sort_keys=True).encode()
        ).hexdigest(),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (out / name).write_text(json.dumps(report, indent=1))

    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced + {len(traced)} traced "
          f"repetitions, workload digest {report['stamp']['workload_digest'][:16]}")
    for metric in declared["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        print(f"  {'end-to-end':10} {name:34} {end_to_end[name]:17.6f} {unit}")
    print(f"  {'end-to-end':10} {'fail_share':34} {failed / attempted:17.6f} ratio "
          f"({failed} of {attempted} ops)")
    for key, (value, unit) in report["workload_metrics"].items():
        print(f"  {'workload':10} {key:34} {value:17.6f} {unit}")
    if args.trace:
        layers = report["per_layer"]
        for key in sorted(layers["self_s"]):
            print(f"  {'span':10} {key:34} {layers['self_s'][key]:17.6f} s self, "
                  f"x{layers['span_counts'][key]:g}")
        for key, value in sorted(layers["counts"].items()):
            print(f"  {'count':10} {key:34} {value:17.6f}")
        print(f"  {'trace':10} {'overhead (traced - untraced run_s)':34} {overhead:17.6f} s")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
