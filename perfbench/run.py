"""Run the pLUTo request-ladder benchmark.

One workload::

    python3 perfbench/run.py --workload run-small --seed 1 --seconds 15 --trace 0

computes the functional-backend reference digests (cached per seed), then
runs the workload in fresh processes: with ``--trace 0`` the first
``SETUP_RUNS - 1`` processes only set up, and ``setup_s`` is the median
set-up time of all of them, each scaled by the host's slowdown measured
just before it (see ``hostspeed.py``); the last process also runs the
timed window.  ``--trace 1`` runs one traced process and reports the
per-layer metrics.
Every metric is printed by name with its unit, a record is written under
``.perfbench/records/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A wrong
output makes the command exit 1.

Every workload, untraced then traced, into one record::

    python3 perfbench/run.py --all [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve()
RECORDS = ROOT / ".perfbench" / "records"

#: The seed claims are developed on, and one held out for checking them.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027
#: Fresh processes whose set-up time gives the ``setup_s`` median.
SETUP_RUNS = 3
#: Wall-clock budget of one workload run, all processes included.
DEADLINE_S = 170.0


def _parser() -> argparse.ArgumentParser:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--all", action="store_true", help="every workload, untraced then traced"
    )
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--reference", help=argparse.SUPPRESS)
    return parser


def _spawn(
    role: str, args: argparse.Namespace, reference: Path, timeout: float
) -> tuple[float, dict | None]:
    """Run one workload process; returns (set-up seconds, its payload)."""
    command = [
        sys.executable,
        str(RUN),
        "--role",
        role,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--reference",
        str(reference),
    ]
    # A fixed string-hash seed gives every process the same dict layouts,
    # one source of process-to-process timing differences fewer.
    env = dict(os.environ, PYTHONHASHSEED="0")
    began = time.perf_counter()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env
    )
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    ready_s = None
    payload = None
    try:
        assert child.stdout is not None
        for line in child.stdout:
            if line.startswith("@ready"):
                ready_s = time.perf_counter() - began
            elif line.startswith("@result "):
                payload = json.loads(line[len("@result ") :])
            else:
                sys.stdout.write(line)
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or ready_s is None or (role == "measure" and not payload):
        raise RuntimeError(
            f"the {role} process of {args.workload} failed "
            f"(exit code {child.returncode})"
        )
    return ready_s, payload


def _record(stem: str, content: object) -> Path:
    """Write a record; the UTC time and process id keep every run's file."""
    RECORDS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record = RECORDS / f"{stem}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps(content, indent=1))
    return record


def _run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program source src/repro is missing", file=sys.stderr)
        return 2
    from perfbench import hostspeed, oracle
    from perfbench.stats import emit, samples_beyond, scaled_time
    from perfbench.workloads import KERNEL_ELEMENTS

    started = time.monotonic()
    reference = oracle.reference_file(args.workload, args.seed)
    roles = ["measure"] if args.trace else ["setup"] * (SETUP_RUNS - 1) + ["measure"]
    # (set-up seconds, host slowdown) of each process.
    setups: list[tuple[float, float]] = []
    payload: dict = {}
    for role in roles:
        slowdown = hostspeed.slowdown(KERNEL_ELEMENTS[args.workload])
        remaining = DEADLINE_S - (time.monotonic() - started)
        ready_s, payload = _spawn(role, args, reference, max(remaining, 1.0))
        setups.append((ready_s, slowdown))
    values = dict(payload["metrics"])
    kind = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        values["setup_s"] = scaled_time(setups)
    metrics = emit(values, kind)
    correct = payload["failed"] == 0

    for name, label, ns, pj, count in payload["plans"]:
        print(
            f"plan {args.workload} {name}: {label} modelled {ns:.1f} ns "
            f"{pj:.1f} pJ x{count}"
        )
    for failure in payload["failures"]:
        print(f"FAILED {args.workload}: {failure}")
    if args.trace:
        print(
            f"samples {args.workload}: {payload['traced_samples']} traced, "
            f"{payload['samples']} untraced; latency_p99_us has "
            f"{samples_beyond(payload['samples'], 99)} untraced samples beyond it"
        )
    else:
        host = payload["host"]
        print(f"samples {args.workload}: {payload['samples']} latencies")
        print(
            f"host {args.workload}: slowdown {host['slowdown']:.3f} over "
            f"{host['segments'][0]} latency and {host['segments'][1]} rate segments; "
            f"unscaled latency_p50_us {host['raw_latency_p50_us']:.6g}, "
            f"throughput_rps {host['raw_throughput_rps']:.6g}"
        )
        print(
            f"setup {args.workload}: "
            + " ".join(f"{ready:.3f} s (slowdown {slow:.3f})" for ready, slow in setups)
        )
    if args.workload == "serve-pool" and not args.trace:
        print("note serve-pool: throughput_rps is the closed-loop bulk phase")
    for name, metric in metrics.items():
        print(f"metric {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")

    result = {
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }
    _record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            setup_runs_s=setups,
            samples=payload["samples"],
            host=payload.get("host"),
            failures=payload["failures"],
            plans=payload["plans"],
        ),
    )
    print(json.dumps(result))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    from perfbench.workloads import WORKLOADS

    runs = []
    for trace in (0, 1):
        for workload in WORKLOADS:
            completed = subprocess.run(
                [
                    sys.executable,
                    str(RUN),
                    "--workload",
                    workload,
                    "--seed",
                    str(args.seed),
                    "--seconds",
                    str(args.seconds),
                    "--trace",
                    str(trace),
                ],
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
            )
            sys.stdout.write(completed.stdout)
            lines = completed.stdout.splitlines()
            result = json.loads(lines[-1]) if completed.returncode in (0, 1) else None
            runs.append({"workload": workload, "trace": trace, "result": result})
    print("\nworkload trace metric value unit")
    for run in runs:
        if run["result"] is None:
            print(f"{run['workload']} {run['trace']} FAILED")
            continue
        for name, metric in run["result"]["metrics"].items():
            print(
                f"{run['workload']} {run['trace']} {name} "
                f"{metric['value']:.6g} {metric['unit']}"
            )
    record = _record(f"all-seed{args.seed}", runs)
    print(f"record: {record.relative_to(ROOT)}")
    ok = all(run["result"] is not None and run["result"]["correct"] for run in runs)
    return 0 if ok else 1


def _child(args: argparse.Namespace) -> int:
    from perfbench.workloads import run_child

    reference = json.loads(Path(args.reference).read_text())
    payload = run_child(
        args.role, args.workload, args.seed, args.seconds, bool(args.trace), reference
    )
    if payload is not None:
        print("@result " + json.dumps(payload), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.role is not None:
        return _child(args)
    if args.all:
        return _run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return _run_one(args)


if __name__ == "__main__":
    # Import the benchmark as a package and the program from its source
    # tree, never modules that merely sit beside this script.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
