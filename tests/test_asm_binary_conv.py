"""Instruction-level validation of the eBNN binary convolution.

Runs the assembly binary-conv kernel through the microarchitectural
interpreter and checks it against both the numpy reference
(:func:`repro.nn.binary.binary_conv2d`) and the Python kernel's cost
model — the cross-layer fidelity check for the eBNN mapping.
"""

import numpy as np
import pytest

from repro.dpu.interpreter import run_program
from repro.dpu.memory import Wram
from repro.dpu.samples import OUTPUT_BASE, binary_conv_program
from repro.nn.binary import binary_conv2d
from repro.errors import DpuError

IMAGE_SIZE = 8
N_FILTERS = 2


def run_asm_conv(image_bits: np.ndarray, weight_bits: np.ndarray):
    """Execute the asm kernel; returns (outputs, ExecutionResult)."""
    n_filters = weight_bits.shape[0]
    size = image_bits.shape[0]
    program = binary_conv_program(size, n_filters)
    wram = Wram()
    wram.write_array(0, image_bits.reshape(-1).astype(np.int32))
    wram.write_array(
        4 * size * size, weight_bits.reshape(-1).astype(np.int32)
    )
    result, wram = run_program(
        program.program, wram=wram, n_tasklets=n_filters
    )
    out_side = size - 2
    outputs = wram.read_array(
        OUTPUT_BASE, np.int32, n_filters * out_side * out_side
    ).reshape(n_filters, out_side, out_side)
    return outputs, result


def reference_conv(image_bits: np.ndarray, weight_bits: np.ndarray):
    """The numpy reference on the same {0,1} data, valid convolution."""
    image_signs = np.where(image_bits > 0, 1, -1).astype(np.int8)
    weight_signs = np.where(weight_bits > 0, 1, -1).astype(np.int8)
    return binary_conv2d(image_signs, weight_signs, padding=0)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_numpy_reference(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 2, size=(IMAGE_SIZE, IMAGE_SIZE))
        weights = rng.integers(0, 2, size=(N_FILTERS, 3, 3))
        asm_out, _ = run_asm_conv(image, weights)
        assert np.array_equal(asm_out, reference_conv(image, weights))

    @pytest.mark.parametrize("size,n_filters", [(10, 2), (16, 4)])
    def test_matches_numpy_reference_past_the_mul8_range(self, size, n_filters):
        """Output bases above 255 bytes per filter need the wide multiply."""
        rng = np.random.default_rng(size)
        image = rng.integers(0, 2, size=(size, size))
        weights = rng.integers(0, 2, size=(n_filters, 3, 3))
        asm_out, _ = run_asm_conv(image, weights)
        assert np.array_equal(asm_out, reference_conv(image, weights))

    def test_all_ones_hits_maximum(self):
        image = np.ones((IMAGE_SIZE, IMAGE_SIZE), dtype=np.int64)
        weights = np.ones((1, 3, 3), dtype=np.int64)
        asm_out, _ = run_asm_conv(image, weights)
        assert np.all(asm_out == 9)

    def test_opposite_bits_hit_minimum(self):
        image = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.int64)
        weights = np.ones((1, 3, 3), dtype=np.int64)
        asm_out, _ = run_asm_conv(image, weights)
        assert np.all(asm_out == -9)

    def test_results_bounded(self):
        rng = np.random.default_rng(9)
        image = rng.integers(0, 2, size=(10, 10))
        weights = rng.integers(0, 2, size=(3, 3, 3))
        asm_out, _ = run_asm_conv(image, weights)
        assert asm_out.min() >= -9 and asm_out.max() <= 9

    def test_parity_invariant(self):
        rng = np.random.default_rng(10)
        image = rng.integers(0, 2, size=(IMAGE_SIZE, IMAGE_SIZE))
        weights = rng.integers(0, 2, size=(2, 3, 3))
        asm_out, _ = run_asm_conv(image, weights)
        assert np.all(asm_out % 2 != 0)  # 3x3 correlations are odd


class TestTimingCrossValidation:
    def test_asm_cycles_in_the_cost_models_band(self):
        """The instruction-level kernel's per-MAC cost sits in the band
        the Python kernel charges (loads + XNOR chain + addressing)."""
        rng = np.random.default_rng(3)
        image = rng.integers(0, 2, size=(IMAGE_SIZE, IMAGE_SIZE))
        weights = rng.integers(0, 2, size=(N_FILTERS, 3, 3))
        _, result = run_asm_conv(image, weights)
        macs = N_FILTERS * (IMAGE_SIZE - 2) ** 2 * 9
        instructions_per_mac = result.instructions_retired / macs
        # inner loop: ~17 instructions of loads, xor chain, addressing,
        # loop control — the kernel model's __mulsi3(O0)/small(O3) band
        assert 12 <= instructions_per_mac <= 30

    def test_filters_run_concurrently(self):
        """Doubling the filters (= tasklets) barely moves wall time."""
        rng = np.random.default_rng(4)
        image = rng.integers(0, 2, size=(IMAGE_SIZE, IMAGE_SIZE))
        one, _ = None, None
        _, one_filter = run_asm_conv(image, rng.integers(0, 2, size=(1, 3, 3)))
        _, four_filters = run_asm_conv(image, rng.integers(0, 2, size=(4, 3, 3)))
        assert four_filters.cycles < one_filter.cycles * 1.5

    def test_spare_tasklets_exit_cleanly(self):
        """Launching more tasklets than filters must not corrupt output."""
        from repro.dpu.samples import binary_conv_program

        rng = np.random.default_rng(5)
        image = rng.integers(0, 2, size=(IMAGE_SIZE, IMAGE_SIZE))
        weights = rng.integers(0, 2, size=(2, 3, 3))
        program = binary_conv_program(IMAGE_SIZE, 2)
        wram = Wram()
        wram.write_array(0, image.reshape(-1).astype(np.int32))
        wram.write_array(4 * IMAGE_SIZE**2, weights.reshape(-1).astype(np.int32))
        _, wram = run_program(program.program, wram=wram, n_tasklets=8)
        out = wram.read_array(OUTPUT_BASE, np.int32, 2 * 36).reshape(2, 6, 6)
        assert np.array_equal(out, reference_conv(image, weights))


class TestValidation:
    def test_size_limits(self):
        with pytest.raises(DpuError):
            binary_conv_program(2, 1)
        with pytest.raises(DpuError):
            binary_conv_program(8, 0)
        with pytest.raises(DpuError):
            binary_conv_program(8, 25)
        # Weights end at 4 * size**2 + 36 * filters > OUTPUT_BASE (16384).
        with pytest.raises(DpuError, match="output region"):
            binary_conv_program(64, 1)
        with pytest.raises(DpuError, match="output region"):
            binary_conv_program(63, 15)  # 15876 + 540
        # Outputs: 13 * 31**2 = 12493 words > (65536 - 16384) / 4 = 12288.
        with pytest.raises(DpuError, match="end of WRAM"):
            binary_conv_program(33, 13)
        binary_conv_program(33, 12)  # 11532 words: fits
