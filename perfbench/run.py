"""The repository's benchmark: wall-time performance of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload yolo_offline --seed 1 \
        --seconds 20 --trace 0

Workloads: ``yolo_offline``, ``ebnn_offline``, ``serve_mixed`` and
``dpu_asm`` (see ``perfbench/README.md`` and ``BENCHMARK.json``).

The program runs in its default configuration, in fresh processes started
one after another (one load-generating process at a time; the program's
own launch engine may add up to ``os.cpu_count()`` workers):

* ``--trace 0``: ``SETUP_PROBES`` processes only time their set-up, then
  one process sets up and runs the timed phase.  ``setup_s`` is the
  median of all set-ups; ``items_per_s`` and ``peak_rss_mb`` come from
  the timed process.
* ``--trace 1``: one process runs the untraced phase, a phase with the
  program's tracer on and a phase with the benchmark's layer wrappers,
  and reports the per-layer metrics.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


def units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``bench.py`` in a fresh process; relay its output; parse its record."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench.py {' '.join(args)} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench.py {' '.join(args)} failed ({proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    child = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(
                run_child(child + ["--setup-only"], CHILD_TIMEOUT_S)["setup_s"]
            )
    record = run_child(child, CHILD_TIMEOUT_S)
    setups.append(record["setup_s"])

    if args.trace:
        values = record["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": record["items_per_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        print(f"setup_s samples: {setups}")
    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units(kind).items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
