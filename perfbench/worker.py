"""One dbarlab pipeline run in a fresh interpreter, timed from the inside.

Usage (from the checkout root):
    python3 perfbench/worker.py CONFIG SEED OUT_DIR [--cpu N] [--setup-only] [--spans PATH]

Prints one JSON line: `ready`, the CLOCK_MONOTONIC time at which dbarlab was
imported and the config parsed (the parent subtracts its spawn time), and,
unless --setup-only, the pipeline's wall and CPU time from the parsed config
to the CSV written, and the process's peak RSS.  The exit code is the
pipeline's own (0 all checks passed, 2 some check failed).  With --spans the
public functions listed in layers.json are wrapped and their spans written to
PATH after the run.  With --cpu the process, and every thread it starts,
runs on that core alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(HERE.parent / "src"))
    from dbarlab import cli

    cfg = cli.parse_config(args.config)
    cfg.seed = args.seed  # forwarded the way `dbarlab <op> --seed` does
    # time.monotonic is CLOCK_MONOTONIC, shared by every process on the host
    result = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
        tracer = Tracer(run_id=f"{Path(args.config).stem}-{args.seed}")
        tracer.install([f"{layer}.{fn}" for layer, spec in layers.items()
                        for fn in spec["functions"]])

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    code = cli.run(cfg, args.out)
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.dump(args.spans)
    result.update(
        wall_s=wall,
        cpu_s=_cpu_s(after) - _cpu_s(before),
        peak_rss_mb=after.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    )
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
