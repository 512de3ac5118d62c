"""Tests for the per-DPU attempt/restore loop shared by serial and
parallel launches (``repro.host.parallel.run_attempts``)."""

import numpy as np
import pytest

from repro import faults
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.dpu.device import Dpu, DpuImage
from repro.dpu.kernel import GLOBAL_KERNELS
from repro.errors import DpuFaultError
from repro.host import parallel
from repro.host.runtime import DpuSystem

PAGE = 64 * 1024
#: Kernel calls so far; the kernel fails on every odd-numbered call.
CALLS: list[int] = []

if "test_flaky_pages" not in GLOBAL_KERNELS.names():

    @GLOBAL_KERNELS.register("test_flaky_pages")
    def _flaky_pages_kernel(ctx):
        """First attempt writes page 0 and traps; the retry writes page 2."""
        CALLS.append(1)
        if len(CALLS) % 2:
            ctx.write_symbol_array("first", np.full(8, 7, dtype=np.uint8))
            raise DpuFaultError("trapped after touching page 0")
        ctx.write_symbol_array("second", np.full(8, 9, dtype=np.uint8))
        ctx.charge_instructions(4)


@pytest.fixture(autouse=True)
def no_injected_faults():
    """Only the kernel's own trap fails; an env smoke plan stays out."""
    CALLS.clear()
    with faults.fault_injection(faults.FaultPlan()):
        yield


IMAGE = DpuImage.from_symbol_layout(
    "flaky_pages",
    kernel_name="test_flaky_pages",
    layout=[("first", 8), ("gap", 2 * PAGE), ("second", 8)],
)


def test_worker_delta_after_retry_holds_only_the_retry_pages():
    dpu = Dpu(0)
    task = parallel.ChunkTask(
        image=IMAGE,
        attributes=dpu.attributes,
        n_tasklets=1,
        opt_level=OptLevel.O0,
        kernel_params={},
        orders=[parallel.DpuWorkOrder(
            index=0, dpu_id=0, checkpoint=dpu.checkpoint()
        )],
        fault_policy="retry",
        max_retries=1,
    )
    reply = parallel._run_order(task, task.orders[0])
    assert reply.outcome.ok and reply.outcome.attempts == 2
    assert sorted(reply.delta.mram_pages) == [2]


def test_serial_retry_restores_the_failed_attempt_writes():
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(1))
    dpu_set = system.allocate(1)
    dpu_set.load(IMAGE)
    report = dpu_set.launch(workers=1, fault_policy="retry", max_retries=1)
    assert report.n_retried == 1 and not report.degraded
    dpu = dpu_set[0]
    assert dpu.read_symbol("first", 8) == bytes(8)
    assert dpu.read_symbol("second", 8) == bytes([9] * 8)
