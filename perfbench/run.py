#!/usr/bin/env python3
"""The vvaf benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root, with no installation (the package is loaded
from ``src``):

    python3 perfbench/run.py --workload mellin --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  A table goes to standard output, the
last line is one JSON object, and a result file with provenance, every
failure and the known-defect probes is written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import DEFAULT_SEED, OUT_DIR, ROOT, WORKLOADS, cli_env

NPROC = len(os.sched_getaffinity(0))
PROBE = ROOT / "perfbench" / "probe.py"
REFERENCE = ROOT / "perfbench" / "reference.json"
SETUP_REPS = 5
IMPORT_REPS = 3
REL_TOL = 1e-12  # agreement with the stored reference, relative to the value's norm
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
UNITS = {"setup_s": "s", "solve_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms", "peak_rss_mb": "MB"}
IMPORT_ORDER = ("numpy", "scipy.special", "vvaf.cli", "scipy.signal")

# Machine speed.  On a shared virtual machine the same call can take up to
# 2x longer for a fraction of a second to tens of seconds, in Python loops
# and numpy alike, and CPU time slows with wall time.  Every time (jobs,
# passes, set-up probes) is therefore divided by the speed factor of the
# CPU over that interval, measured with a fixed loop before, between and
# after the jobs: the factor is 1 when the loop takes its reference time.
# The loop mixes integer arithmetic, function calls and small numpy calls
# (the mix that tracked the workloads best) and calls nothing of the
# package, so a change to the package cannot move it.  Raw wall times are
# kept in the result file.
CAL_EVERY_S = 0.25  # job time between two speed samples
CAL_PY_S = 0.006  # reference times of the two parts of the loop
CAL_CALL_S = 0.0035
SPEED_WINDOW_S = 1.0


def _step(x: int) -> int:
    return x + 1


class Speed:
    """Speed factors of the machine over time: 1.0 at the reference speed, 2.0 when twice as slow.

    The speed can switch within a fraction of a second, so the factor for
    an interval is the mean of the samples taken within ``SPEED_WINDOW_S``
    of it: the time-weighted slowdown over a job spanning several switches.
    """

    def __init__(self):
        self.samples: list = []  # (time, factor)

    def sample(self) -> None:
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        t1 = perf_counter()
        for _ in range(60_000):
            acc = _step(acc)
        t2 = perf_counter()
        self.samples.append((t2, 0.5 * (t1 - t0) / CAL_PY_S + 0.5 * (t2 - t1) / CAL_CALL_S))

    def factor(self, start: float, end: float) -> float:
        near = [f for t, f in self.samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return statistics.fmean(near)


# -- set-up and imports, each in fresh interpreters ------------------------------


def measure_setup(workload: str, reps: int, speed) -> tuple:
    """Raw wall times from spawning an interpreter until it reports ready, their speed factors, and
    the speed-corrected import times inside the interpreter."""
    walls, factors, imports = [], [], []
    for _ in range(reps):
        speed.sample()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), "setup", workload],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=cli_env(),
            cwd=ROOT,
        )
        line = proc.stdout.readline()
        ready = perf_counter()
        try:
            _, err = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {workload} failed: {err.strip()[-400:]}")
        speed.sample()
        walls.append(ready - start)
        factors.append(speed.factor(start, ready))
        imports.append(float(line.split()[1]) / factors[-1])
    return walls, factors, imports


def import_breakdown(reps: int, speed: Speed) -> dict:
    """Cumulative import times from ``python -X importtime`` in fresh interpreters.

    The modules are imported in the order numpy, scipy.special, vvaf.cli,
    scipy.signal, so each figure excludes what the earlier ones loaded.
    """
    samples: dict = {k: [] for k in ("import.numpy_s", "import.scipy_special_s", "import.vvaf_s", "import.scipy_signal_s")}
    code = "; ".join(f"import {m}" for m in IMPORT_ORDER)
    for _ in range(reps):
        speed.sample()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=cli_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        end = perf_counter()
        speed.sample()
        factor = speed.factor(start, end)
        top = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2]
            if name.startswith(" ") and not name.startswith("  "):  # top level, not nested
                top[name.strip()] = int(parts[1]) / 1e6 / factor
        samples["import.numpy_s"].append(top.get("numpy", 0.0))
        samples["import.scipy_special_s"].append(top.get("scipy", 0.0) + top.get("scipy.special", 0.0))
        samples["import.vvaf_s"].append(top.get("vvaf", 0.0) + top.get("vvaf.cli", 0.0))
        samples["import.scipy_signal_s"].append(top.get("scipy.signal", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


# -- passes -----------------------------------------------------------------------


def compare(values: dict, stored: dict) -> list:
    import numpy as np

    bad = []
    for field, got in values.items():
        want = stored.get(field)
        if want is None or len(want) != len(got):
            bad.append(f"{field}: no matching stored reference")
            continue
        if any(isinstance(x, str) for x in want):
            if list(got) != list(want):
                bad.append(f"{field}: {got} != stored {want}")
            continue
        a, b = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            bad.append(f"{field}: NaN pattern differs from the reference")
            continue
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        gap = float(np.linalg.norm(a - b))
        if gap > REL_TOL * float(np.linalg.norm(b)):
            bad.append(f"{field}: off the reference by {gap / max(float(np.linalg.norm(b)), 1e-300):.3e} relative")
    return bad


def check_job(job, result, outputs: dict, reference: dict, seed: int) -> list:
    try:
        bad = list(job.check(result, outputs)) if job.check else []
        if job.values and (not job.seeded or seed == DEFAULT_SEED):
            stored = reference.get(job.name)
            bad += compare(job.values(result), stored) if stored is not None else ["no stored reference"]
    except Exception as exc:  # a check that cannot run counts the job as failed
        bad = [f"check raised {type(exc).__name__}: {exc}"]
    return bad


class PassLog:
    """Per-job and per-pass times of one series of passes; ``latencies`` and ``walls`` are speed-corrected."""

    def __init__(self):
        self.walls: list = []
        self.raw_walls: list = []
        self.latencies: list = []
        self.raw_latencies: list = []
        self.job_names: list = []
        self.failures: list = []
        self.layers: list = []  # per traced pass, tracing totals with times speed-corrected

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_passes(wl, ctx, seed: int, budget: float, reference: dict, min_passes: int, first_pass: int, speed: Speed, tracer=None) -> PassLog:
    """Whole passes over the job list until the budget is spent (at least ``min_passes``).

    Job times are divided by ``speed``'s factors.

    A pass's wall time is the sum of its job times; the speed samples
    between jobs and the checks after the pass are outside it.
    """
    log = PassLog()
    start = perf_counter()
    pass_index = first_pass
    while True:
        wl.refresh(ctx)
        jobs = wl.jobs(ctx, seed, pass_index)
        outputs, errors, spans = {}, {}, []
        if tracer is not None:
            tracer.new_pass()
            tracer.active = True
        speed.sample()
        pending = 0.0
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            t0 = perf_counter()
            try:
                outputs[job.name] = job.call()
            except Exception as exc:  # a job that raises is a failed job
                errors[job.name] = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            spans.append((t0, t1))
            pending += t1 - t0
            if pending >= CAL_EVERY_S:
                speed.sample()
                pending = 0.0
        speed.sample()
        if tracer is not None:
            tracer.active = False
        raw = [t1 - t0 for t0, t1 in spans]
        scaled = [(t1 - t0) / speed.factor(t0, t1) for t0, t1 in spans]
        raw_wall, wall = sum(raw), sum(scaled)
        if tracer is not None:
            log.layers.append(tracing.scale_times(tracer.stats.totals(raw_wall), wall / raw_wall))
        elif "cli_traces" in ctx:
            log.layers.append(tracing.scale_times(tracing.sum_totals(ctx.pop("cli_traces"), raw_wall), wall / raw_wall))
        log.walls.append(wall)
        log.raw_walls.append(raw_wall)
        log.latencies += scaled
        log.raw_latencies += raw
        log.job_names += [job.name for job in jobs]
        for job in jobs:
            bad = [errors[job.name]] if job.name in errors else check_job(job, outputs[job.name], outputs, reference, seed)
            if bad:
                log.failures.append({"pass": pass_index, "job": job.name, "messages": bad})
        pass_index += 1
        if len(log.walls) >= min_passes and perf_counter() - start + raw_wall > budget:
            return log


# -- metrics ------------------------------------------------------------------------


def tail(latencies: list, level: float) -> tuple:
    """(percentile, value, samples beyond) with at least ten samples beyond, if possible."""
    import numpy as np

    n = len(latencies)
    lower = [p for p in TAIL_LADDER if p <= level]
    while len(lower) > 1 and n * (1 - lower[-1] / 100) < 10:
        lower.pop()
    p = lower[-1]
    value = float(np.percentile(latencies, p))
    return p, value, sum(1 for x in latencies if x > value)


def _job_medians(logs: list) -> dict:
    """Median speed-corrected latency of each job name in untraced passes (numbered jobs grouped)."""
    by_name: dict = {}
    for name, latency in zip(logs[0].job_names, logs[0].latencies):
        key = re.sub(r"\.\d+$", "", name)
        by_name.setdefault(key, []).append(latency)
    return {k: 1e3 * statistics.median(v) for k, v in by_name.items()}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "seed": seed,
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text()).get(name, {})
    speed = Speed()
    setup_walls, setup_factors, import_times = measure_setup(name, SETUP_REPS, speed)
    ctx = wl.setup()
    result: dict = {"workload": name, "trace": int(trace), "provenance": provenance(seed)}
    oracle = workloads.oracle_and_honesty() if (name == "mellin" or trace) else {"failures": [], "ratios": {}}
    result["oracle"] = oracle
    result["known_defects"] = workloads.known_defects(name)
    try:
        if not trace:
            logs = [run_passes(wl, ctx, seed, seconds, reference, wl.min_passes, 0, speed)]
        else:
            plain = run_passes(wl, ctx, seed, seconds / 2, reference, 1, 0, speed)
            if not wl.in_process:
                ctx["trace_cli"] = True
                traced = run_passes(wl, ctx, seed, seconds / 2, reference, 1, len(plain.walls), speed)
            else:
                tracer = tracing.Tracer()
                tracer.install()
                traced = run_passes(wl, ctx, seed, seconds / 2, reference, 1, len(plain.walls), speed, tracer)
                OUT_DIR.mkdir(parents=True, exist_ok=True)
                spans_path = OUT_DIR / f"{name}-seed{seed}-spans.json"
                spans_path.write_text(json.dumps(tracer.spans_payload()))
                result["spans_file"] = str(spans_path.relative_to(ROOT))
            logs = [plain, traced]
    finally:
        if "out_root" in ctx:
            shutil.rmtree(ctx["out_root"], ignore_errors=True)

    latencies = logs[0].latencies  # end-to-end figures come from untraced passes only
    failures = [f for log in logs for f in log.failures]
    attempted = sum(log.attempted for log in logs)
    failed = len(failures)
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    p, tail_value, beyond = tail(latencies, wl.tail_percentile)
    end_to_end = {
        "setup_s": statistics.median(w / f for w, f in zip(setup_walls, setup_factors)),
        "solve_s": statistics.median(logs[0].walls),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    result.update(
        {
            "end_to_end": end_to_end,
            "fail_frac": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:50],
            "tail": {"percentile": p, "samples": len(latencies), "beyond": beyond},
            "passes": [log.walls for log in logs],
            "job_medians_ms": _job_medians(logs),
            "raw": {
                "pass_walls_s": [log.raw_walls for log in logs],
                "setup_walls_s": setup_walls,
                "speed_factors": [f for _, f in speed.samples],
                "setup_speed_factors": setup_factors,
                "solve_s": statistics.median(logs[0].raw_walls),
                "job_p50_ms": 1e3 * statistics.median(logs[0].raw_latencies),
            },
        }
    )
    if trace:
        per_layer = tracing.median_metrics([tracing.finish(t) for t in logs[1].layers])
        per_layer.update(import_breakdown(IMPORT_REPS, speed))
        per_layer["trace.overhead_frac"] = statistics.median(logs[1].walls) / statistics.median(logs[0].walls) - 1.0
        per_layer["lfunc.err_understatement"] = max(oracle["ratios"].values())
        per_layer["cli.import_s"] = statistics.median(import_times) if name == "cli" else 0.0
        for command, _ in workloads.README_COMMANDS:
            times = [x for x, job in zip(logs[0].latencies, logs[0].job_names) if job == f"cli.{command}"]
            per_layer[f"cli.{command}_s"] = statistics.median(times) if times else 0.0
        result["per_layer"] = per_layer
    return result


# -- output ----------------------------------------------------------------------------


def print_table(result: dict, metric_names: list) -> None:
    e2e = result["end_to_end"]
    tail_info = result["tail"]
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  trace {result['trace']}")
    notes = {
        "setup_s": f"median of {len(result['raw']['setup_walls_s'])} fresh interpreters",
        "solve_s": f"median of {len(result['passes'][0])} passes",
        "job_p50_ms": f"median of {tail_info['samples']} jobs",
        "job_tail_ms": f"p{tail_info['percentile']:g} of {tail_info['samples']} jobs, {tail_info['beyond']} beyond",
        "peak_rss_mb": "benchmark process" if WORKLOADS[result["workload"]].in_process else "largest child process",
    }
    for key, value in e2e.items():
        print(f"  {key:<13} {value:>14.6g} {UNITS[key]:<3} ({notes[key]})")
    print(f"  {'fail_frac':<13} {result['fail_frac']:>14.6g}     ({result['failed']} of {result['attempted']} jobs)")
    for failure in result["failures"][:5]:
        print(f"    FAILED pass {failure['pass']} {failure['job']}: {'; '.join(failure['messages'])}")
    for message in result["oracle"]["failures"]:
        print(f"    FAILED oracle: {message}")
    for defect in result["known_defects"]:
        print(f"  known defect {defect['status']}: {defect['probe']} {defect['detail']}")
    if result["trace"]:
        for key in metric_names:
            print(f"  {key:<34} {result['per_layer'][key]:.6g}")


def final_line(result: dict, bench: dict) -> dict:
    correct = result["failed"] == 0 and not result["oracle"]["failures"]
    if result["trace"]:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; one table, one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


def pin_one_cpu() -> None:
    """Run this process and every child it starts on one CPU, with one BLAS thread.

    The two virtual CPUs of a shared machine run at different speeds at
    different times, and the speed samples must run on the CPU the jobs
    run on.  Called before numpy loads, so the BLAS cap takes effect.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    if not (ROOT / "src" / "vvaf" / "__init__.py").is_file():
        print(f"error: no vvaf sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print_table(result, [m["name"] for m in bench["per_layer"]])
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(final_line(result, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
