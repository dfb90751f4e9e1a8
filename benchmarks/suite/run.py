"""One benchmark for the whole system: five workloads, end to end and by layer.

Run one workload (the machine-readable form: the last stdout line is JSON)::

    python3 benchmarks/suite/run.py --workload table2 --seed 7 --seconds 15 --trace 0

Run several, repeat them and summarise the spread, or compare two result
files under the regression bounds in ``BENCHMARK.json``::

    python3 benchmarks/suite/run.py [--workloads a,b] [--repeat 5] [--json OUT]
    python3 benchmarks/suite/run.py --compare BASE.json NEW.json

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones (``--trace-out FILE`` also writes a Chrome trace of the traced half);
``--smoke`` shrinks every workload for the self-test.  See README.md.

Every workload runs in fresh subprocesses with address-space
randomization off: set-up is measured three times (``setup_s`` is the
median) and the third subprocess goes on to the timed phase.  Every time
is divided by the host factor sampled while it ran
(``hostspeed.HostSpeed``).  This file itself never imports the program;
only the measuring subprocesses do, so a checkout without ``src/repro``
fails fast.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import grouped_median, quartiles, tail_percentile

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
REFERENCES_FILE = SUITE_DIR / "references.json"
WORK_ROOT = ROOT / ".bench_work"

DEFAULT_SEED = 1994
WORKLOADS = ("table2", "tail-sweep", "wide-vec", "shard-journal", "serve-mix")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: How set-up time grows with the host-speed probe's, in log terms (see
#: ``hostspeed``).  Less than an operation's 1: much of a set-up is
#: process start, imports and file reads, which a busy host slows less
#: than it slows the interpreter.  Fits over 12–20 set-ups of each
#: workload gave 0.41–0.76.
SETUP_ELASTICITY = 0.6

#: Wall-clock budget of one workload invocation, all subprocesses included.
RUN_TIMEOUT = 170.0


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_FILE) as handle:
        return json.load(handle)


# ------------------------------------------------------------- one workload

def child_env(workdir: Path) -> Dict[str, str]:
    """The measuring subprocesses' environment.

    Ambient ``REPRO_*`` overrides (executor, kernel, telemetry, chaos)
    would change what is measured, so they are dropped; temporary files
    stay inside the work directory.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir),
               PYTHONHASHSEED="0")
    return env


#: ``personality(2)`` flag that turns off address-space randomization.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> Callable[[], None]:
    """A ``preexec_fn`` that turns off address-space randomization.

    With randomization on, the interpreter's speed on the reference host
    depended on where its code and data happened to land: the same loop
    ran 1.4 ms in one process and 1.9 ms in the next, a per-process
    offset no host-speed sample can remove.  With it off, every measuring
    subprocess (and the pool workers and server it starts, which inherit
    the flag) has the same layout.  Where the call fails the child keeps
    a random layout and reports it (``layout_fixed``).
    """
    libc = ctypes.CDLL(None, use_errno=True)
    personality = libc.personality
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int

    def apply() -> None:
        current = personality(0xFFFFFFFF)
        if current != -1:
            personality(current | ADDR_NO_RANDOMIZE)

    return apply


def layout_is_fixed() -> bool:
    """Whether this process runs without address-space randomization."""
    try:
        flags = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return False
    return bool(flags & ADDR_NO_RANDOMIZE)


def spawn_child(kind: str, args: argparse.Namespace, workdir: Path,
                deadline: float) -> Dict[str, Any]:
    """Run one measuring subprocess in its own session, with a fixed
    memory layout; its report."""
    result_file = workdir / f"{kind}-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(SUITE_DIR / "run.py"), "--child", kind,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result-file", str(result_file),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out:
        command += ["--trace-out", str(Path(args.trace_out).resolve())]
    if args.references:
        command += ["--references", str(Path(args.references).resolve())]
    command += ["--spawned-at", repr(time.perf_counter())]
    process = subprocess.Popen(command, env=child_env(workdir),
                               stdout=sys.stderr.fileno(),
                               start_new_session=True,
                               preexec_fn=fixed_layout())
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{args.workload}: {kind} subprocess timed out")
    if code != 0:
        raise RuntimeError(f"{args.workload}: {kind} subprocess exited {code}")
    with open(result_file) as handle:
        return json.load(handle)


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Set-ups, then the measuring subprocess; the merged report."""
    deadline = time.monotonic() + RUN_TIMEOUT
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [spawn_child("setup", args, workdir, deadline)
                  for _ in range(0 if args.trace else SETUP_REPEATS - 1)]
        report = spawn_child("measure", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    setups.append(report)
    report["layout_fixed"] = all(setup["layout_fixed"] for setup in setups)
    report["setup_runs"] = [(setup["setup_s"], setup["setup_slowdown"])
                            for setup in setups]
    report["setup_s"] = statistics.median(
        seconds / slowdown ** SETUP_ELASTICITY
        for seconds, slowdown in report["setup_runs"])
    ops = report["ops"]
    latencies = corrected(ops, report["elasticity"])
    groups = [group for _, _, group in ops]
    report["op_ms"] = grouped_median(latencies, groups)
    report["op_raw_ms"] = grouped_median([op[0] for op in ops], groups)
    report["host_slowdown"] = (statistics.median(op[1] for op in ops)
                               if ops else 0.0)
    tail = tail_percentile(latencies)
    if tail is not None:
        report["op_tail"] = {"percentile": tail[0], "value_ms": tail[1],
                             "beyond": tail[2], "samples": len(latencies)}
    if args.trace:
        traced = report["traced_ops"]
        traced_p50 = grouped_median(corrected(traced, report["elasticity"]),
                                    [group for _, _, group in traced])
        report["per_layer"]["trace.overhead_frac"] = (
            traced_p50 / report["op_ms"] - 1
            if traced and latencies else 0.0)
        report["per_layer"]["host.slowdown"] = (
            statistics.median(op[1] for op in traced) if traced else 0.0)
    return report


def corrected(ops: List[List[Any]], elasticity: float) -> List[float]:
    """Each ``(latency ms, host slowdown, group)`` sample's latency divided
    by its host factor, the slowdown to the workload's elasticity."""
    return [latency / slowdown ** elasticity for latency, slowdown, _ in ops]


def declared_metrics(report: Dict[str, Any], trace: int,
                     benchmark: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The report's values for exactly the metrics BENCHMARK.json declares."""
    if trace:
        values, declared = report["per_layer"], benchmark["per_layer"]
    else:
        values = {name: report[name]
                  for name in ("setup_s", "op_ms", "peak_rss_mb")}
        declared = benchmark["end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"emitted metrics {sorted(values)} != declared {sorted(names)}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]} for metric in declared}


def print_report(name: str, report: Dict[str, Any],
                 metrics: Dict[str, Dict[str, Any]]) -> None:
    """Human-readable lines: ``workload metric value unit``."""
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} op_raw_ms {report['op_raw_ms']:.6g} ms "
          f"(host slowdown {report['host_slowdown']:.3f})")
    tail = report.get("op_tail")
    if tail:
        print(f"{name} op_tail_ms {tail['value_ms']:.6g} ms "
              f"(p{tail['percentile'] * 100:g}, {tail['beyond']} of "
              f"{tail['samples']} samples beyond)")
    print(f"{name} failed {report['failed']} of {report['attempted']}")
    if not report["layout_fixed"]:
        print(f"{name}: address-space randomization could not be turned "
              "off; times spread wider than the bounds assume",
              file=sys.stderr)
    if "layers" in report:
        wall = report["per_layer"]["trace.wall_s"]
        for layer, row in sorted(report["layers"].items(),
                                 key=lambda item: -item[1]["self_s"]):
            share = row["self_s"] / wall if wall else 0.0
            print(f"{name} layer {layer} self {row['self_s']:.4f} s "
                  f"({share:.1%} of traced wall, {int(row['spans'])} spans)")
    for line in report["failures"] + report["errors"]:
        print(f"{name}: {line}", file=sys.stderr)


def main_one(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    report = run_workload(args)
    metrics = declared_metrics(report, args.trace, benchmark)
    print_report(args.workload, report, metrics)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke, "report": report,
                       "metrics": metrics}, handle, indent=1)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


# ------------------------------------------------- repeats and comparisons

def summarise(runs: List[Dict[str, Any]], benchmark: Dict[str, Any]) -> None:
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    for name in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == name]
        print(f"\n{name} ({len(mine)} runs)")
        print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for metric in mine[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in mine]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            span = (max(values) - min(values)) / median if median else 0.0
            bound = bounds.get(metric)
            print(f"  {metric:<24} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {span:>8.3f} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}")
        fit = elasticity_fit(mine)
        if fit is not None:
            print(f"  elasticity: the log of op_raw_ms rose {fit[0]:.2f} "
                  f"times as fast as the log of the host slowdown "
                  f"(correlation {fit[1]:.2f}; the workload uses "
                  f"{mine[0]['elasticity']:g})")


def elasticity_fit(runs: List[Dict[str, Any]]) -> Optional[Tuple[float, float]]:
    """(slope, correlation) of log raw median on log slowdown across runs,
    the check on a workload's ``elasticity``; None without enough spread."""
    slowdowns = [math.log(run["raw"]["host_slowdown"]) for run in runs]
    times = [math.log(run["raw"]["op_raw_ms"]) for run in runs]
    if len(runs) < 4 or max(slowdowns) - min(slowdowns) < 0.05:
        return None
    return (statistics.linear_regression(slowdowns, times).slope,
            statistics.correlation(slowdowns, times))


def run_record(doc: Dict[str, Any]) -> Dict[str, Any]:
    """One run's ``--json`` document, as ``--compare`` reads it."""
    report = doc["report"]
    return {"workload": doc["workload"], "seed": doc["seed"],
            "correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": doc["metrics"],
            "elasticity": report["elasticity"],
            "raw": {"op_raw_ms": report["op_raw_ms"],
                    "host_slowdown": report["host_slowdown"]}}


def main_many(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    runs: List[Dict[str, Any]] = []
    status = 0
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    out = WORK_ROOT / f"run-{os.getpid()}.json"
    for repeat in range(args.repeat):
        order = names if repeat % 2 == 0 else names[::-1]
        for name in order:
            seed = args.seed + repeat
            command = [sys.executable, str(SUITE_DIR / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", repr(args.seconds),
                       "--trace", str(args.trace), "--json", str(out)]
            if args.smoke:
                command.append("--smoke")
            out.unlink(missing_ok=True)
            try:
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True, timeout=RUN_TIMEOUT + 30)
            except subprocess.TimeoutExpired:
                print(f"{name} seed {seed}: timed out", file=sys.stderr)
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if not out.is_file():
                print(f"{name} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            if done.returncode != 0:
                status = 1
            runs.append(run_record(json.loads(out.read_text())))
    out.unlink(missing_ok=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()
    summarise(runs, benchmark)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke, "runs": runs}, handle, indent=1)
    return status


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        doc = json.load(handle)
    return doc["runs"] if "runs" in doc else [run_record(doc)]


def judge(base: List[float], new: List[float], bound: float,
          better: str) -> str:
    """improved / unchanged / worse, or unresolved when runs spread wider
    than the bound (unless every new run beats every base run)."""
    base_q, new_q = quartiles(base), quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_q[1] - base_q[1]) / base_q[1]
    spread = max((base_q[2] - base_q[0]) / base_q[1],
                 (new_q[2] - new_q[0]) / new_q[1])
    if spread > bound:
        beats = all(sign * (n - b) < 0 for n in new for b in base)
        return "improved" if beats else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "unchanged"


def failure_rate(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def metric_values(runs: List[Dict[str, Any]], key: str) -> List[float]:
    values = []
    for run in runs:
        if key in run["metrics"]:
            values.append(run["metrics"][key]["value"])
        elif key in run.get("raw", {}):
            values.append(run["raw"][key])
    return values


def main_compare(base_path: str, new_path: str) -> int:
    """One row per workload; exit 1 when any workload got worse.

    Besides the declared end-to-end metrics, the uncorrected latency
    median is judged under the latency bound, so a change cannot hide a
    slowdown behind a moved host factor; and a workload is worse when any
    new run was incorrect or the new runs failed a larger share of their
    operations than the base runs.
    """
    benchmark = load_benchmark()
    base, new = load_runs(base_path), load_runs(new_path)
    judged = [(m["name"], m["bound"], m["better"])
              for m in benchmark["end_to_end"]]
    judged += [("op_raw_ms", bound, better)
               for name, bound, better in judged if name == "op_ms"]
    worse = False
    for name in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        mine_base = [r for r in base if r["workload"] == name]
        mine_new = [r for r in new if r["workload"] == name]
        cells = []
        for key, bound, better in judged:
            before = metric_values(mine_base, key)
            after = metric_values(mine_new, key)
            if not before or not after:
                continue
            verdict = judge(before, after, bound, better)
            worse = worse or verdict == "worse"
            change = (statistics.median(after) - statistics.median(before)) \
                / statistics.median(before)
            cells.append(f"{key} {verdict} ({change:+.1%})")
        if not all(run["correct"] for run in mine_new):
            cells.append("output worse (incorrect)")
            worse = True
        if failure_rate(mine_new) > failure_rate(mine_base):
            cells.append(f"failed worse ({failure_rate(mine_base):.2%} -> "
                         f"{failure_rate(mine_new):.2%} of operations)")
            worse = True
        print(f"{name:<14} " + "; ".join(cells))
    return 1 if worse else 0


# ------------------------------------------------------------- subprocesses

def main_child(args: argparse.Namespace) -> int:
    """A measuring subprocess (``--child setup|measure|regenerate``)."""
    from hostspeed import HostSpeed

    speed = HostSpeed().start()
    sys.path[:0] = [str(ROOT / "src"), str(SUITE_DIR)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        raise SystemExit(f"refusing to measure {repro.__file__}, not this tree")
    import workloads

    references = Path(args.references) if args.references else REFERENCES_FILE
    committed = json.loads(references.read_text()) if references.is_file() else {}
    if args.child == "regenerate":
        report = workloads.regenerate(args.workload, args.seed, args.seconds,
                                      Path(args.workdir))
    else:
        report = workloads.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, Path(args.workdir), args.spawned_at,
            args.child == "setup", committed, args.trace_out, speed)
        report["layout_fixed"] = layout_is_fixed()
    speed.stop()
    with open(args.result_file, "w") as handle:
        json.dump(report, handle)
    return 0


def main_regenerate(args: argparse.Namespace) -> int:
    """Recompute the committed references for the default seed."""
    merged: Dict[str, Any] = {"seed": DEFAULT_SEED, "seconds": args.seconds,
                              "digests": {}, "podem": {}}
    for name in WORKLOADS:
        args.workload, args.seed, args.trace = name, DEFAULT_SEED, 0
        workdir = WORK_ROOT / f"regenerate-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            report = spawn_child("regenerate", args, workdir,
                                 time.monotonic() + 900)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        merged["digests"].update(report["digests"])
        merged["podem"].update(report["podem"])
        print(f"{name}: {len(report['digests'])} references", flush=True)
    with open(REFERENCES_FILE, "w") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py",
        description="benchmark every workload end to end and layer by layer")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; the last stdout line is JSON")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace of the traced half")
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write every run's results to OUT")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="judge NEW against BASE under the bounds")
    parser.add_argument("--references", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--regenerate-references", action="store_true",
                        help="recompute references.json for the default seed")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--result-file", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        return main_child(args)
    if args.compare:
        return main_compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.trace_out:
        args.trace = 1
    if args.regenerate_references:
        return main_regenerate(args)
    if args.workload:
        try:
            return main_one(args)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    return main_many(args)


if __name__ == "__main__":
    raise SystemExit(main())
