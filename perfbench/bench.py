"""One benchmark process: set a workload up, time it, print one record.

``run.py`` starts this script in a fresh process (with ``src`` on
``PYTHONPATH``) and reads the JSON record it prints as its last line.
Other lines are human-readable: the run's configuration, the simulated
digest and, in traced runs, the per-layer and per-YOLO-layer tables.

Modes:

* ``--setup-only``: time the set-up and stop (the extra ``setup_s``
  samples).
* default: set up, build the oracles, run the timed phase untraced.
* ``--trace 1``: after the untraced phase, run the same phase with the
  program's own tracer on, then with the benchmark's layer wrappers,
  and report per-layer metrics plus both overhead figures.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.dpu import interpreter  # noqa: E402
from repro.host import parallel  # noqa: E402

from layers import Recorder  # noqa: E402
from workloads import SLO_LIMIT_S, WORKLOADS  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


#: The calibration loop's time on the reference host.  ``items_per_s`` is
#: scaled to that host speed: a shared host's CPU speed can drift by +-20%
#: over minutes, which moves the program and the loop alike, and the ratio
#: cancels it.
CAL_REF_S = 0.022
_CAL_WORDS = np.arange(256, dtype=np.int32)


class Op(NamedTuple):
    result: object
    wall: float
    #: Calibration-loop seconds measured right before the op.
    cal: float


def calibration_loop() -> float:
    """Seconds for a fixed mix of Python integer and numpy scalar work.

    Either half alone tracked the simulator's speed drift less closely
    than the two together.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    words = _CAL_WORDS
    for i in range(30_000):
        acc += int(words[i & 255]) * i % 7
    return time.perf_counter() - start


def calibrate(budget_s: float) -> float:
    """Median calibration-loop time over about ``budget_s`` seconds."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < budget_s:
        samples.append(calibration_loop())
    return statistics.median(samples)


def run_phase(workload, seconds: float, op_s: float, around=None) -> list[Op]:
    """Repeat ops until ``seconds`` of wall time have passed.

    The loop is calibrated before the first op and after every op, for
    about 15% of the op's time (``op_s`` for the first); each op
    is scaled by the mean of the calibrations on either side of it.
    """
    results, walls = [], []
    cals = [calibrate(0.15 * op_s)]
    begin = time.perf_counter()
    while not results or time.perf_counter() - begin < seconds:
        prepared = workload.prepare()
        if around is None:
            start = time.perf_counter()
            output = workload.run(prepared)
            wall = time.perf_counter() - start
        else:
            output, wall = around(workload.run, prepared)
        results.append(workload.check(prepared, output))
        walls.append(wall)
        cals.append(calibrate(0.15 * wall))
    return [
        Op(result, wall, (cals[i] + cals[i + 1]) / 2)
        for i, (result, wall) in enumerate(zip(results, walls))
    ]


def with_program_tracer(fn, prepared):
    """One op with ``telemetry.tracing()`` on; spans dropped afterwards."""
    with telemetry.tracing():
        start = time.perf_counter()
        output = fn(prepared)
        wall = time.perf_counter() - start
    return output, wall


def rate(ops: list[Op]) -> float:
    """Median items per wall second, scaled to the reference host speed."""
    return statistics.median(
        op.result.items / op.wall * op.cal / CAL_REF_S for op in ops
    )


def raw_rate(ops: list[Op]) -> float:
    """Median items per wall second as measured on this host."""
    return statistics.median(op.result.items / op.wall for op in ops)


def quantile_ms(values, q: float) -> float:
    return float(np.quantile(values, q)) * 1e3 if values else 0.0


def sim_metrics(ops) -> dict:
    """Simulated metrics of one phase (deterministic for a seed)."""
    first = ops[0].result.sim
    items = ops[0].result.items
    lat = first["latencies"]
    metrics = {
        "ebnn_p50_ms": quantile_ms(lat.get("ebnn", []), 0.50),
        "ebnn_p99_ms": quantile_ms(lat.get("ebnn", []), 0.99),
        "yolo_p50_ms": quantile_ms(lat.get("yolo", []), 0.50),
        "slo_attainment": first.get("slo_met", sum(
            sum(1 for v in values if v <= SLO_LIMIT_S[model])
            for model, values in lat.items() if model in SLO_LIMIT_S
        )) / items,
        "serve.backlog_s": first.get("backlog_s", 0.0),
        "serve.rejected_share": first.get("rejected", 0) / items,
    }
    if "sim_seconds" in first:
        metrics["sim_ms_per_item"] = first["sim_seconds"] * 1e3 / items
    return metrics


def digest(ops) -> str:
    """Hash of every simulated statistic of the first timed op."""
    blob = json.dumps(ops[0].result.sim, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def configuration(workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "item": workload.item,
        "seed": seed,
        "nproc": os.cpu_count(),
        "default_workers": parallel.default_workers(),
        "resolved_workers": parallel.resolve_workers(workload.set_dpus),
        "parallel_min_dpus": parallel.PARALLEL_MIN_DPUS,
        "interpreter": interpreter.current_mode(),
        "metrics_registry": "on",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def layer_metrics(untraced, program_traced, traced, recorder, sim) -> dict:
    """The per-layer metrics of the traced run, per item."""
    items = sum(op.result.items for op in traced)
    wall = sum(op.wall for op in traced)
    self_s = recorder.self_s
    counts = recorder.counts

    def ms(layer):
        return self_s.get(layer, 0.0) * 1e3 / items

    first = untraced[0].result
    if "layer_cycles" in first.sim:
        cycles = sum(first.sim["layer_cycles"]) / first.items
    elif "dpu_cycles" in first.sim:
        cycles = first.sim["dpu_cycles"] / first.items
    else:
        cycles = counts.get("set_cycles", 0.0) / items
    instructions = sum(op.result.sim.get("instructions", 0) for op in traced)
    program_s = sum(self_s.get(k, 0.0)
                    for k in ("runtime.launch", "parallel", "interp"))
    set_launches = counts.get("set_launches", 0)
    metrics = {
        "core.self_ms_per_item": ms("core"),
        "nn.prep_ms_per_item": ms("nn.prep"),
        "nn.post_ms_per_item": ms("nn.post"),
        "runtime.dpu_launches_per_item": counts.get("dpu_launches", 0) / items,
        "runtime.set_launches_per_item": set_launches / items,
        "runtime.launch_self_ms_per_item": ms("runtime.launch"),
        "runtime.alloc_load_ms_per_item": ms("runtime.alloc"),
        "transfer.to_dpu_ms_per_item": ms("transfer.to"),
        "transfer.to_dpu_bytes_per_item":
            counts.get("to_dpu_bytes", 0) / items,
        "transfer.to_dpu_calls_per_item":
            recorder.calls.get("transfer.to", 0) / items,
        "transfer.from_dpu_ms_per_item": ms("transfer.from"),
        "transfer.from_dpu_bytes_per_item":
            counts.get("from_dpu_bytes", 0) / items,
        "parallel.fanout_share":
            counts.get("fanouts", 0) / set_launches if set_launches else 0.0,
        "parallel.ms_per_item": ms("parallel"),
        "kernel.compute_ms_per_item": ms("kernel.compute"),
        "kernel.cost_ms_per_item": ms("kernel.cost"),
        "kernel.sim_cycles_per_item": cycles,
        "interp.instructions_per_item": instructions / items,
        "interp.mips": instructions / program_s / 1e6 if program_s else 0.0,
        "serve.loop_ms_per_request": ms("serve.loop"),
        "trace.residual_ms_per_item": ms("trace.residual"),
        "telemetry.tracer_overhead_pct":
            (rate(untraced) / rate(program_traced) - 1.0) * 100.0,
        "trace.overhead_pct": (rate(untraced) / rate(traced) - 1.0) * 100.0,
    }
    metrics.update(sim)
    for model in ("ebnn", "yolo"):
        batches = [b for b in recorder.batches if b["model"] == model]
        waits = [w for b in batches for w in b["waits"]]
        services = [b["service_s"] for b in batches]
        metrics[f"serve.{model}.queue_wait_p50_ms"] = quantile_ms(waits, 0.5)
        metrics[f"serve.{model}.queue_wait_p99_ms"] = quantile_ms(waits, 0.99)
        metrics[f"serve.{model}.service_ms_p50"] = quantile_ms(services, 0.5)
        metrics[f"serve.{model}.batch_size_mean"] = (
            statistics.mean(b["size"] for b in batches) if batches else 0.0
        )
    if "sim_ms_per_item" not in metrics:
        service = sum(b["service_s"] for b in recorder.batches)
        metrics["sim_ms_per_item"] = service * 1e3 / items
    # Self times plus the residual must account for the traced wall time.
    attributed = sum(self_s.values())
    if not math.isclose(attributed, wall, rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError(
            f"layer self times sum to {attributed} s, traced wall is {wall} s"
        )
    return metrics


def yolo_layer_table(workload, untraced, recorder, n_images: int) -> list:
    """One record per YOLO conv layer: GEMM shape, waves, launches, cycles, wall."""
    rows = []
    cycles = untraced[0].result.sim["layer_cycles"]
    for plan, layer_cycles in zip(workload.model.plans, cycles):
        m, n, k = plan.gemm.m, plan.gemm.n, plan.gemm.k
        n_dpus = min(m, workload.system.n_dpus)
        rows.append({
            "layer": plan.layer_index, "M": m, "N": n, "K": k,
            "waves": -(-m // n_dpus), "dpu_launches": m,
            "sim_cycles": layer_cycles,
            "wall_ms": recorder.layer_wall[plan.layer_index] * 1e3 / n_images,
        })
    return rows


def print_layer_table(rows: list) -> None:
    print(f"{'layer':>5} {'M':>5} {'N':>6} {'K':>6} {'waves':>5} "
          f"{'launch':>6} {'sim_cycles':>12} {'wall_ms':>8}")
    for r in rows:
        print(f"{r['layer']:>5} {r['M']:>5} {r['N']:>6} {r['K']:>6} "
              f"{r['waves']:>5} {r['dpu_launches']:>6} "
              f"{r['sim_cycles']:>12.0f} {r['wall_ms']:>8.3f}")


def traced_run(workload, seconds: float, untraced, sim: dict) -> tuple:
    """The program-tracer and layer-wrapper phases; writes the trace files."""
    op_s = statistics.median(op.wall for op in untraced)
    program_traced = run_phase(workload, seconds, op_s, with_program_tracer)
    recorder = Recorder()
    if workload.name == "yolo_offline":
        recorder.track_yolo_layers(workload.runner)
    recorder.install()
    try:
        traced = run_phase(workload, seconds, op_s, recorder.op)
    finally:
        recorder.uninstall()
    per_layer = layer_metrics(untraced, program_traced, traced, recorder, sim)
    report = {"config": configuration(workload, workload.seed),
              "per_layer": per_layer, "self_s": dict(recorder.self_s)}
    if workload.name == "yolo_offline":
        rows = yolo_layer_table(
            workload, untraced, recorder, sum(op.result.items for op in traced)
        )
        report["yolo_layers"] = rows
        print_layer_table(rows)
    for name in sorted(per_layer):
        print(f"  {name:<36} {per_layer[name]:.6g}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{workload.seed}"
    telemetry.write_chrome_trace(recorder.tracer, f"{stem}-trace.json")
    with open(f"{stem}-report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"trace written to {stem}-trace.json")
    return per_layer, program_traced + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        prepared = workload.warm_input()
        warm_start = time.perf_counter()
        workload.check(prepared, workload.run(prepared))
        warm_s = time.perf_counter() - warm_start
        record = {"setup_s": time.perf_counter() - _START}
        if not args.setup_only:
            print("config: " + json.dumps(
                configuration(workload, args.seed), sort_keys=True
            ))
            workload.build_oracles()
            ops = run_phase(workload, args.seconds, warm_s)
            sim = sim_metrics(ops)
            print(f"sim digest: {digest(ops)}  " + "  ".join(
                f"{k}={v:.6g}" for k, v in sorted(sim.items())
            ))
            record["items_per_s"] = rate(ops)
            print(f"items_per_s {record['items_per_s']:.6g} at the reference "
                  f"speed, {raw_rate(ops):.6g} as measured; calibration "
                  f"loop {statistics.median(op.cal for op in ops):.6g} s "
                  f"(reference {CAL_REF_S} s), {len(ops)} ops")
            if args.trace:
                record["per_layer"], more = traced_run(
                    workload, args.seconds, ops, sim
                )
                ops = ops + more
            record["attempted"] = sum(op.result.items for op in ops)
            record["failed"] = sum(op.result.failed for op in ops)
            record["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        print(json.dumps(record))
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
