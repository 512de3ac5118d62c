"""Shared pytest fixtures and test kernels.

Registering the test kernel here (rather than in one test module) keeps
every test file independently runnable.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.dpu.kernel import GLOBAL_KERNELS

# Importing repro.core registers the production kernels (ebnn_conv_pool,
# yolo_gemm_row) for every test session.
import repro.core  # noqa: F401


if "test_double" not in GLOBAL_KERNELS.names():

    @GLOBAL_KERNELS.register("test_double")
    def _double_kernel(ctx, *, count=0):
        """Doubles ``count`` int32 values at the ``data`` symbol."""
        if count:
            values = ctx.read_symbol_array("data", np.int32, count)
            ctx.write_symbol_array("data", values * 2)
        ctx.charge_instructions(4 * count)


@pytest.fixture
def traffic():
    """Host-link traffic the metrics registry counted since the test began.

    Returns a callable giving ``{"to_dpu", "from_dpu", "broadcasts",
    "pushes"}`` from ``transfer.bytes{direction}``, ``transfer.broadcasts``
    and ``transfer.pushes``.
    """
    before = telemetry.GLOBAL_METRICS.snapshot()

    def moved() -> dict:
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        by_direction = delta["transfer.bytes"]["children"]
        return {
            "to_dpu": by_direction[(("direction", "to_dpu"),)]["state"],
            "from_dpu": by_direction[(("direction", "from_dpu"),)]["state"],
            "broadcasts": delta["transfer.broadcasts"]["state"],
            "pushes": delta["transfer.pushes"]["state"],
        }

    return moved
