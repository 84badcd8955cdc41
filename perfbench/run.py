"""statepath benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a statepath checkout; the package is imported from
``src/``, so nothing is installed or built. With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a separate traced pass. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the same numbers for people, the environment record and
run details. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
    "zeval_process_ms": "ms",
    "lattice_process_ms": "ms",
    "optimize_process_ms": "ms",
    "collapse_process_ms": "ms",
}

# probe rounds spread over the timed phase: each round is one set-up probe and
# one statepath process of each of the four subcommands
PROBE_ROUNDS = 7
# the ladder stops at p99: above it the band-sweep tail is set by stalls of the
# shared host, not by the program (p99.9 spread 0.59 of its median over 5 seeds)
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60.0


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten jobs beyond it (p50 below 20 jobs)."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            chosen = p
    return chosen


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def child_env(src: Path) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


# -- environment record ------------------------------------------------------


def _openblas() -> dict:
    import numpy

    blas = (numpy.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.decode().strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "statepath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, src: Path) -> dict:
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _openblas(),
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(src),
    }


# -- measurement pieces ------------------------------------------------------


def setup_seconds(workload, env: dict) -> float:
    """Wall time from spawning a fresh interpreter until it can start a job.

    The probe prints ``time.monotonic()`` when it is ready; on Linux that
    clock is shared by all processes, so the two readings compare directly.
    """
    argv = [sys.executable, str(HERE / "probe.py"), workload.name, workload.setup_module]
    start = time.monotonic()
    done = subprocess.run(argv, env=env, capture_output=True, timeout=PROBE_TIMEOUT_S)
    words = done.stdout.split()
    if done.returncode != 0 or len(words) != 2 or words[0] != b"ready":
        raise RuntimeError(f"setup probe failed: {done.stderr.decode('utf-8', 'replace').strip()}")
    return float(words[1]) - start


class Tally:
    """Latencies and outcomes of the jobs of one pass."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.short: list[str] = []

    def run(self, job, corrupt: bool = False, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a job that raises is a failed job, the run goes on
            self.busy += time.perf_counter() - start
            self.failed += 1
            self.wrong.append(f"{job.kind}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.latencies.append(elapsed)
        self.by_kind.setdefault(job.kind, []).append(elapsed)
        if corrupt:
            out = job.corrupt(out)
        wrong, short = job.check(out)
        if wrong or short:
            self.failed += 1
        self.wrong += wrong
        self.short += short

    def jobs_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy > 0 else 0.0


def run_cycles(workload, seed: int, tally: Tally, seconds: float, wall_limit: float,
               corrupt: bool, between) -> int:
    """Run whole cycles until ``seconds`` of job time; ``between`` runs after each cycle."""
    index = 0
    start = time.perf_counter()
    while tally.busy < seconds and time.perf_counter() - start < wall_limit:
        for job in workload.cycle(seed, index):
            tally.run(job, corrupt=corrupt and tally.attempted == 0)
        index += 1
        between()
    return index


def summarize(tally: Tally) -> dict:
    """Failure counts by kind, with up to eight distinct messages each."""
    return {kind: {"count": len(found), "examples": sorted(set(found))[:8]}
            for kind, found in (("wrong", tally.wrong), ("short", tally.short))}


# -- the two kinds of run ----------------------------------------------------


def timed_run(workload, seed: int, seconds: float, root: Path, env: dict,
              scratch: Path, corrupt: bool):
    import workloads

    runner = workloads.CliRunner(seed, scratch, env)
    if workload.name == "cli":
        workload.runner = runner
    workload.warm_up()

    tally = Tally()
    probe = Tally()
    setup: list[float] = []
    # the probes are spread over the timed phase, between cycles, so their
    # medians sample the same stretch of machine time as the jobs do; the host
    # changes speed for tens of seconds at a time, so one block of probes
    # would measure a single one of those stretches
    plan = []
    for _ in range(PROBE_ROUNDS):
        plan.append(lambda: setup.append(setup_seconds(workload, env)))
        plan += [functools.partial(probe.run, runner.job(command)) for command in workloads.COMMANDS]
    done = 0

    def probe_due(final: bool = False) -> None:
        nonlocal done
        due = len(plan) if final else int(len(plan) * min(1.0, tally.busy / seconds))
        while done < due:
            plan[done]()
            done += 1

    wall_limit = max(3.0 * seconds, seconds + 60.0)
    cycles = run_cycles(workload, seed, tally, seconds, wall_limit, corrupt, probe_due)
    probe_due(final=True)
    # every statepath process of the run counts: the probes, and on cli the jobs too
    process = {f"statepath {command}": probe.by_kind[f"statepath {command}"]
               + tally.by_kind.get(f"statepath {command}", []) for command in workloads.COMMANDS}
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    n = len(tally.latencies)
    tail_p = tail_percentile(n)
    tail = percentile(tally.latencies, tail_p)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": tally.jobs_per_s(),
        "job_p50_ms": percentile(tally.latencies, 50.0) * 1e3,
        "job_tail_ms": tail * 1e3,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    for command in workloads.COMMANDS:
        metrics[f"{command}_process_ms"] = statistics.median(process[f"statepath {command}"]) * 1e3
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "cycles": cycles,
        "jobs": n,
        "busy_s": tally.busy,
        "tail_percentile": tail_p,
        "tail_jobs_beyond": sum(1 for latency in tally.latencies if latency > tail),
        "fail_ratio": tally.failed / tally.attempted,
        "setup_probes_s": setup,
        "probe_rounds": PROBE_ROUNDS,
        "process_ms_samples": {k: [v * 1e3 for v in process[f"statepath {k}"]] for k in workloads.COMMANDS},
        "job_p50_ms_by_kind": {k: percentile(v, 50.0) * 1e3 for k, v in sorted(tally.by_kind.items())},
        "jobs_by_kind": {k: len(v) for k, v in sorted(tally.by_kind.items())},
        "outcomes": summarize(tally),
        "process_probe_outcomes": summarize(probe),
    }
    correct = not tally.wrong and not probe.wrong
    return correct, tally, {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, detail


def traced_run(workload, seed: int, seconds: float, root: Path, env: dict,
               scratch: Path, corrupt: bool):
    import tracing
    import workloads

    runner = workloads.CliRunner(seed, scratch, env)
    if workload.name == "cli":
        workload.runner = runner
    workload.warm_up()
    cycles = max(1, round(seconds * workload.traced_cycles_per_s))

    # each cycle runs untraced, then traced, so both passes see the same
    # stretch of machine time; counts come from the traced pass only
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    for index in range(cycles):
        for job in workload.cycle(seed, index):
            plain.run(job, corrupt=corrupt and plain.attempted == 0)
        if workload.name == "cli":
            runner.traced = True
            for job in workload.cycle(seed, index):
                traced.run(job, corrupt=corrupt and traced.attempted == 0)
            runner.traced = False
            continue
        tracer.install()
        try:
            for job in workload.cycle(seed, index):
                traced.run(job, corrupt=corrupt and traced.attempted == 0, tracer=tracer)
        finally:
            tracer.uninstall()

    parts: list[dict] = []
    processes: list[dict] = []
    if workload.name == "cli":
        for proc in runner.traced_runs:
            record = {"import_s": 0.0, "spans": [], "counters": {}}
            if proc.trace_path is not None and proc.trace_path.exists():
                record = json.loads(proc.trace_path.read_text(encoding="utf-8"))
            dump = {"spans": [tuple(span) for span in record["spans"]], "counters": record["counters"]}
            parts.append(dump)
            processes.append({"import_s": record["import_s"], "exit_code": proc.exit_code, "dump": dump})
    else:
        parts.append(tracer.dump())

    metrics = tracing.layer_metrics(parts, processes)
    untraced_rate, traced_rate = plain.jobs_per_s(), traced.jobs_per_s()
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.jobs_per_s_ratio"] = (traced_rate / untraced_rate if untraced_rate else 0.0, "1")

    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracing.write_spans(spans_path, parts)

    both = Tally()
    for part in (plain, traced):
        both.attempted += part.attempted
        both.failed += part.failed
        both.wrong += part.wrong
        both.short += part.short
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "cycles_per_pass": cycles,
        "jobs_per_pass": traced.attempted,
        "spans": sum(len(part["spans"]) for part in parts),
        "spans_file": str(spans_path.relative_to(root)),
        "outcomes": summarize(both),
    }
    return not both.wrong, both, metrics, detail


# -- smoke mode ----------------------------------------------------------------


WORKLOAD_NAMES = ("band-sweep", "shared-h", "paths", "cli")


def run_child(root: Path, workload: str, seed: int, seconds: float, trace: int, extra=()):
    """Run this script for one workload in a child; return (exit code, stdout lines, stderr)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(argv, cwd=root, capture_output=True, timeout=600)
    return (done.returncode, done.stdout.decode("utf-8", "replace").rstrip().splitlines(),
            done.stderr.decode("utf-8", "replace"))


def run_all(root: Path, seed: int, seconds: float, trace: int) -> int:
    """Run every workload in turn and print its metrics and check result."""
    results = {}
    for name in WORKLOAD_NAMES:
        code, lines, err = run_child(root, name, seed, seconds, trace)
        if code != 0 or not lines:
            print(f"{name}: exit {code}: {err[-400:]}", flush=True)
            return 1
        for line in lines[:-1]:
            if not line.startswith(("env ", "detail ")):
                print(line, flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def smoke(root: Path) -> int:
    """Run every workload briefly, traced and not, and once with a corrupted job.

    Checks the result line's shape, that every metric listed in BENCHMARK.json
    is printed with its unit and nothing else, and that a corrupted output
    turns into a failed job and ``correct = false``.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems: list[str] = []
    if listed[0] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the runner's metric table")

    def run(workload: str, trace: int, extra=()) -> dict:
        code, lines, err = run_child(root, workload, 7, 1, trace, extra)
        if code != 0 or not lines:
            problems.append(f"{workload} trace={trace} {list(extra)}: exit {code}: {err[-400:]}")
            return {}
        return json.loads(lines[-1])

    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(name, trace)
            if not result:
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"{name} trace={trace}: correct is false")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != listed[trace]:
                missing = sorted(set(listed[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(listed[trace].items()))
                problems.append(f"{name} trace={trace}: missing {missing}, unlisted {extra}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
        corrupted = run(name, 0, ["--corrupt-first-job"])
        if corrupted and (corrupted["correct"] or corrupted["failed"] < 1):
            problems.append(f"{name}: a corrupted job did not show up as failed")
        elif corrupted:
            print(f"smoke {name} corrupted: failed {corrupted['failed']} of {corrupted['attempted']}, "
                  f"correct {corrupted['correct']}", flush=True)
    for problem in problems:
        print(f"smoke FAIL: {problem}", flush=True)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)", flush=True)
    return 0 if not problems else 1


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check every workload briefly")
    parser.add_argument("--corrupt-first-job", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "statepath" / "__init__.py").is_file():
        print(f"error: no statepath sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, args.trace)

    sys.path.insert(0, str(src))
    env = child_env(src)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    try:
        run = traced_run if args.trace else timed_run
        correct, tally, metrics, detail = run(workload, args.seed, args.seconds, root, env, scratch,
                                              args.corrupt_first_job)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10}  {name:<40} {value:>16.6g} {unit}")
    print(f"{args.workload:>10}  correct={correct} attempted={tally.attempted} failed={tally.failed}")
    print("env " + json.dumps(environment(root, src)))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
