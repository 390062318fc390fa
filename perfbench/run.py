"""dbarlab benchmark: the CLI pipelines as users run them, one at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

One client in a closed loop: each repetition is `dbarlab.cli.run` on the
workload's config in a fresh interpreter (perfbench/worker.py), started only
after the previous one has ended, so every repetition pays the lazy caches
and the import again.

Each process runs on one core, the cores taking turns, with BLAS threads
capped at that one core.  The pace of a core of this shared host drifts by
up to half for tens of seconds, so a fixed reference loop (pace.py) is timed
on the process's core right before and right after it, and the process's
times are scaled to the loop's reference pace.  The unscaled medians are
printed and saved next to the scaled ones.

--trace 0 repeats the pipeline until --seconds have passed, and at least
twice, after five set-up samples that also warm the caches, then reports the
medians of the scaled
    wall_s       config parsed -> CSV written, tracing off
    cpu_s        user + system CPU time over the same interval, all threads
    setup_s      fresh interpreter -> dbarlab imported and config parsed
                 (median of at least five processes)
and of
    peak_rss_mb  peak resident memory of the pipeline process
--trace 1 runs the pipeline untraced for --seconds (at least once), then once
with every function listed in layers.json wrapped (tracer.py), and reports
per function `<module>.<fn>.calls`, `.s` and `.self_s`, the derived
`grid.dz_array.mb`, `hormander.cg_iters` and `hormander.cg_iter_ms`,
`trace.overhead_s` (traced wall_s minus the untraced median, both scaled) and
`failed_frac` (failing check rows plus raised errors over rows attempted).

Every pipeline run is checked: its exit code, every CSV row's pass flag
against the set recorded in workloads.json (the two resolution-limited rows
of identities-n2 are recorded as failing), and that all runs of one
invocation, which share the seed, write byte-identical CSVs.  `attempted`
counts check rows; `failed` counts rows that differ from the recorded flags
or from the first run's bytes, and rows lost to a crash.  A run that fails
any check makes the command exit 1.

The seed defaults to the configs' 20260808; workloads.json also records a
held-out seed for checking a gain on a seed it was not tuned on.  Results,
with the machine and version record, are saved to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import compileall
import configparser
import csv
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
TARGETS = [f"{layer}.{fn}" for layer, spec in LAYERS.items() for fn in spec["functions"]]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
SCALED = ("wall_s", "cpu_s", "setup_s")  # times scaled to the reference pace
# one invocation must end within 180 s: start no optional repetition that
# would, at the previous one's pace, end after BUDGET_S
BUDGET_S = 150.0
TIMEOUT_S = 170.0


def read_config(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # the domain section has both n and N
    parser.read(path, encoding="utf-8")
    return parser


def blas_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


def getconf(name: str):
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int, env: dict, names: list) -> dict:
    import numpy
    import scipy

    l3 = getconf("LEVEL3_CACHE_SIZE")
    working_sets = {}
    for name in names:
        cfg = read_config(HERE / SPEC["workloads"][name]["config"])
        n, N = cfg.getint("domain", "n"), cfg.getint("domain", "N")
        field = 16 * N ** (2 * n)  # one complex128 scalar field
        form = field * cfg.getint("metric", "rank", fallback=1) * n  # one (n,1)-form
        working_sets[name] = {"field_bytes": field, "form_bytes": form, "l3_bytes": l3,
                              "form_over_l3": form / l3 if l3 else None,
                              "basis": "computed from array sizes"}
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "cores_per_process": 1,
        "pace_reference_s": pace.REFERENCE_S,
        "commit": git_commit(),
        "working_sets": working_sets,
    }


def spawn(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py once; its JSON line plus exit code, setup time and duration."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"exit": None, "error": "timed out", "took": time.monotonic() - started}
    took = time.monotonic() - started
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"exit": proc.returncode, "error": tail[0], "took": took}
    record["setup_s"] = record.pop("ready") - started
    record.update(exit=proc.returncode, took=took)
    return record


def paced_spawn(args: list, env: dict, deadline: float, cpu: int, count: int = 1) -> list:
    """spawn() `count` times on one core, stopping at an error, with every
    record's times scaled to that core's reference pace before and after."""
    before = pace.measure(cpu)
    records = []
    for _ in range(count):
        records.append(spawn([*args, "--cpu", cpu], env, deadline))
        if "error" in records[-1]:
            break
    pace_s = math.sqrt(before * pace.measure(cpu))
    for record in records:
        record.update(cpu=cpu, pace_s=pace_s)
        for key in SCALED:
            if key in record:
                record[f"raw_{key}"] = record[key]
                record[key] *= pace.REFERENCE_S / pace_s
    return records


def check_run(record: dict, out_dir: Path, op: str, expected: dict, reference):
    """Compare one run's report with the recorded flags and the first run's bytes."""
    report = out_dir / f"{op}.csv"
    problems = [f"worker: {record['error']}"] if "error" in record else []
    try:
        with open(report, newline="", encoding="utf-8") as fh:
            # a check slug repeats across bidegrees, so rows are keyed by slug and p
            rows = [(f"{row['check']} p={row['p']}", int(row["passed"]))
                    for row in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError) as exc:
        return {"rows": len(expected), "wrong": len(expected), "failing": len(expected),
                "problems": problems + [f"no readable report: {exc}"]}
    flags = dict(rows)
    problems += [f"{slug}: passed={flags.get(slug)} but recorded {expected.get(slug)}"
                for slug in sorted(expected.keys() | flags.keys())
                if flags.get(slug) != expected.get(slug)]
    if len(flags) != len(rows):
        problems.append("a (check, p) pair repeats in the report")
    wrong = len(problems)
    expected_exit = 0 if all(expected.values()) else 2
    if record["exit"] != expected_exit:
        problems.append(f"exit code {record['exit']}, expected {expected_exit}")
    record["csv"] = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    if reference is not None and record["csv"] != reference:
        differing = sum(
            a != b for name in reference.keys() | record["csv"].keys()
            for a, b in zip(reference.get(name, b"").splitlines(),
                            record["csv"].get(name, b"").splitlines()))
        wrong = max(wrong, differing, 1)
        problems.append(f"CSVs differ from the first run at the same seed ({differing} lines)")
    return {"rows": len(rows), "wrong": wrong, "failing": [f for _, f in rows].count(0),
            "problems": problems}


def trace_metrics(spans_path: Path, traced: dict, untraced_wall: float) -> dict:
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    metrics, counts = summarize(spans, TARGETS)
    cg_iters = counts["hormander.solve_min_norm"]
    solve_s = metrics["hormander.solve_min_norm.s"][0]
    metrics["grid.dz_array.mb"] = (counts["grid.dz_array"] / 1e6, "MB")
    metrics["hormander.cg_iters"] = (cg_iters, "count")
    metrics["hormander.cg_iter_ms"] = (1e3 * solve_s / cg_iters if cg_iters else 0.0, "ms")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workload = SPEC["workloads"][name]
    config = HERE / workload["config"]
    op = read_config(config)["operation"]["name"]
    expected = workload["expected"]
    spans_path = OUT / "spans" / f"{name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    begun = time.monotonic()
    deadline = begun + TIMEOUT_S
    runs = []
    cores = itertools.cycle(sorted(os.sched_getaffinity(0)))  # processes take turns
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # the set-up samples come first and warm the page cache and imports
        # before any pipeline is timed
        setups = []
        for record in paced_spawn([config, seed, Path(tmp) / "setup", "--setup-only"],
                                  env, deadline, next(cores), MIN_SETUP_SAMPLES):
            if "error" in record:
                runs.append({"check": {"rows": 0, "wrong": 1, "failing": 0,
                                       "problems": [f"setup run: {record['error']}"]}})
            else:
                setups.append(record["setup_s"])

        def pipeline(*extra):
            out_dir = Path(tmp) / f"run{len(runs)}"
            [record] = paced_spawn([config, seed, out_dir, *extra], env, deadline, next(cores))
            record["check"] = check_run(record, out_dir, op, expected,
                                        runs[0].get("csv") if runs else None)
            runs.append(record)
            return "error" not in record

        start = time.monotonic()
        min_runs = 1 if trace else 2
        while len(setups) == MIN_SETUP_SAMPLES and pipeline():
            now = time.monotonic()
            if len(runs) >= min_runs and (now - start >= seconds
                                          or now - begun + runs[-1]["took"] > BUDGET_S):
                break
        untraced = [r for r in runs if "wall_s" in r]
        traced = None
        if trace and len(untraced) == len(runs) and pipeline("--spans", spans_path):
            traced = runs[-1]
        setups += [r["setup_s"] for r in untraced]

    checks = [r["check"] for r in runs]
    problems = [p for c in checks for p in c["problems"]]
    if trace and traced is None:
        problems.append("the traced run did not complete")
    result = {
        "correct": not problems,
        "attempted": max(sum(c["rows"] for c in checks), 1),
        "failed": max(sum(c["wrong"] for c in checks), int(bool(problems))),
        "problems": problems,
    }
    if not untraced or (trace and traced is None):
        result["metrics"] = {}
        return result
    median = statistics.median
    if trace:
        metrics = trace_metrics(spans_path, traced, median(r["wall_s"] for r in untraced))
        attempted = sum(c["rows"] for c in checks) or 1
        metrics["failed_frac"] = (sum(c["failing"] for c in checks) / attempted, "ratio")
        counts = {key: 1 for key in metrics}
    else:
        metrics = {
            "wall_s": (median(r["wall_s"] for r in untraced), "s"),
            "cpu_s": (median(r["cpu_s"] for r in untraced), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        counts = {key: len(untraced) for key in metrics}
        counts["setup_s"] = len(setups)
        result["unscaled"] = {key: median(r[f"raw_{key}"] for r in untraced)
                              for key in ("wall_s", "cpu_s")}
    result["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    result["sample_counts"] = counts
    result["runs"] = [{k: v for k, v in r.items() if k not in ("csv",)} for r in runs]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=SPEC["seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dbarlab" / "cli.py").is_file():
        print(f"error: no dbarlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: dbarlab sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = blas_env(1)  # each pipeline process runs on one core
    machine = environment(nproc, env, names)
    print("environment:", json.dumps(machine))

    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        results[name] = result
        for key, metric in result["metrics"].items():
            print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}"
                  f"  (n={result['sample_counts'][key]})")
        for key, value in result.get("unscaled", {}).items():
            print(f"{name}  {key} unscaled = {value:.6g} s")
        for problem in result["problems"]:
            print(f"{name}  CHECK FAILED: {problem}")
        record = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"workload": name, "seed": args.seed,
                                      "seconds": args.seconds, "trace": args.trace,
                                      "environment": machine, **result}, indent=1),
                          encoding="utf-8")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": m for name, r in results.items()
                   for key, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
