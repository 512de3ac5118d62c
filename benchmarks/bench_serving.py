"""Serving benchmark: throughput and latency percentiles vs offered load.

Drives the :mod:`repro.serve` stack with seeded open-loop workloads at
several offered rates, for both model classes (eBNN multi-image batches,
YOLO multi-DPU GEMM sharding), and writes the BENCH artifact::

    {"benchmark": "serving", "wall_s": ..., "results": [
        {"model": "ebnn", "offered_rps": 4000, "offered": 80,
         "completed": ..., "rejected": ..., "rejects_by_reason": {...},
         "throughput_rps": ..., "p50_ms": ..., "p95_ms": ..., "p99_ms":
         ..., "mean_batch": ..., "batch_sizes": {...}}, ...]}

All latencies are *simulated* seconds, so every number in the artifact
is deterministic for a given seed — comparable across commits and
machines — except ``wall_s``, the host wall-clock seconds the sweep took
(the simulator's own speed, which depends on the machine).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --out BENCH_serving.json
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke

The pytest-collected smoke (``bench_serving``) additionally asserts the
serving invariants: ``completed + rejected == offered`` at every point,
and batched outputs bit-identical to offline one-at-a-time runs.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.host.runtime import DpuSystem
from repro.serve import (
    BatchPolicy,
    DpuPool,
    EbnnBackend,
    InferenceServer,
    LoadSpec,
    YoloBackend,
    default_payloads,
    generate_load,
    run_offline,
)

#: Offered-load sweeps (requests/s of simulated time) per model class.
EBNN_RATES = (1000.0, 4000.0, 16000.0)
YOLO_RATES = (150.0, 600.0, 2400.0)

#: Smoke-mode sweeps: same shape (>= 3 points per class), smaller loads.
SMOKE_EBNN_RATES = (1000.0, 4000.0, 16000.0)
SMOKE_YOLO_RATES = (800.0, 1600.0, 3200.0)


def _build_pool(model: str, seed_offset: int = 0) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(8))
    backend = EbnnBackend() if model == "ebnn" else YoloBackend()
    return DpuPool(system, [backend], dpus_per_model=4)


def run_point(
    model: str,
    rps: float,
    duration_s: float,
    *,
    seed: int,
    policy: BatchPolicy,
    check_equivalence: bool = False,
) -> dict:
    """Serve one offered-load point on a fresh pool; returns the record."""
    spec = LoadSpec(
        rps=rps, duration_s=duration_s, seed=seed, mix=((model, 1.0),)
    )
    requests = generate_load(spec, default_payloads())
    pool = _build_pool(model)
    server = InferenceServer(pool, policy=policy)
    result = server.run(requests)

    assert len(result.responses) == len(requests), (
        f"{model}@{rps}: {len(result.responses)} responses for "
        f"{len(requests)} offered requests"
    )
    assert len(result.completed) + len(result.rejected) == len(requests)

    if check_equivalence and requests:
        reference_pool = _build_pool(model)
        reference = run_offline(reference_pool, requests)
        for response in result.completed:
            ref = reference[response.request_id]
            if isinstance(response.output, (int, np.integer)):
                assert response.output == ref, (
                    f"{model} request {response.request_id}: batched "
                    f"{response.output} != offline {ref}"
                )
            else:
                for got, want in zip(response.output, ref):
                    assert np.array_equal(got, want), (
                        f"{model} request {response.request_id}: batched "
                        "output diverged from the offline run"
                    )
        reference_pool.shutdown()

    completed = result.completed
    batch_sizes = [r.batch_size for r in completed]
    record = {
        "model": model,
        "offered_rps": rps,
        "duration_s": duration_s,
        "offered": len(requests),
        "completed": len(completed),
        "rejected": len(result.rejected),
        "rejects_by_reason": result.rejects_by_reason(),
        "throughput_rps": result.throughput_rps(),
        "p50_ms": _ms(result.latency_quantile(0.50)),
        "p95_ms": _ms(result.latency_quantile(0.95)),
        "p99_ms": _ms(result.latency_quantile(0.99)),
        "mean_batch": (
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
        "batch_sizes": {
            str(k): v for k, v in result.batch_size_counts().items()
        },
    }
    pool.shutdown()
    return record


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def measure(
    *, smoke: bool, seed: int, policy: BatchPolicy
) -> list[dict]:
    if smoke:
        sweeps = (
            ("ebnn", SMOKE_EBNN_RATES, 0.004),
            ("yolo", SMOKE_YOLO_RATES, 0.004),
        )
    else:
        sweeps = (
            ("ebnn", EBNN_RATES, 0.02),
            ("yolo", YOLO_RATES, 0.02),
        )
    results = []
    for model, rates, duration_s in sweeps:
        for index, rps in enumerate(rates):
            results.append(
                run_point(
                    model, rps, duration_s, seed=seed, policy=policy,
                    # The cheapest point per class doubles as the
                    # batched-vs-offline equivalence check.
                    check_equivalence=(index == 0),
                )
            )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast sweep (the CI configuration)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload seed (default: 42)"
    )
    parser.add_argument(
        "--max-batch", type=int, default=16,
        help="batcher flush size (default: 16)",
    )
    parser.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="batcher flush delay in ms (default: 2.0)",
    )
    parser.add_argument(
        "--queue-cap", type=int, default=64,
        help="per-model queue bound (default: 64)",
    )
    parser.add_argument(
        "--out", default="BENCH_serving.json",
        help="BENCH JSON output path (default: BENCH_serving.json)",
    )
    args = parser.parse_args(argv)
    policy = BatchPolicy(
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        queue_cap=args.queue_cap,
    )

    started = time.perf_counter()
    results = measure(smoke=args.smoke, seed=args.seed, policy=policy)
    wall_s = time.perf_counter() - started
    payload = {
        "benchmark": "serving",
        "smoke": args.smoke,
        "seed": args.seed,
        "wall_s": round(wall_s, 2),
        "policy": {
            "max_batch": policy.max_batch,
            "max_delay_s": policy.max_delay_s,
            "queue_cap": policy.queue_cap,
        },
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    print(f"{'model':>6}  {'rps':>8}  {'offered':>7}  {'done':>5}  "
          f"{'rej':>4}  {'thru r/s':>9}  {'p50 ms':>8}  {'p95 ms':>8}  "
          f"{'p99 ms':>8}  {'batch':>6}")
    for row in results:
        print(f"{row['model']:>6}  {row['offered_rps']:>8.0f}  "
              f"{row['offered']:>7}  {row['completed']:>5}  "
              f"{row['rejected']:>4}  {row['throughput_rps']:>9.1f}  "
              f"{_f(row['p50_ms']):>8}  {_f(row['p95_ms']):>8}  "
              f"{_f(row['p99_ms']):>8}  {row['mean_batch']:>6.1f}")
    print(f"wall time {wall_s:.1f} s; wrote {args.out}")
    return 0


def _f(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def bench_serving():
    """Pytest smoke: serving invariants hold at every small load point."""
    policy = BatchPolicy(max_batch=8, max_delay_s=1e-3, queue_cap=32)
    results = measure(smoke=True, seed=42, policy=policy)
    models = {row["model"] for row in results}
    assert models == {"ebnn", "yolo"}
    for row in results:
        assert row["offered"] > 0, f"empty load point: {row['model']}"
        assert row["completed"] + row["rejected"] == row["offered"]


if __name__ == "__main__":
    raise SystemExit(main())
