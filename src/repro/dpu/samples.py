"""Reference DPU assembly programs.

A small library of idiomatic multi-tasklet DPU kernels written against the
simulated ISA — the programs a platform bring-up exercises (memcpy,
reductions, streaming arithmetic), in the spirit of the PrIM benchmark
suite the thesis cites for DPU behaviour validation.  Each builder returns
an assembled :class:`~repro.dpu.isa.Program` plus the WRAM layout its
caller needs; tests validate functional results against numpy and the
benchmark harness measures their simulated throughput.

Layout conventions: inputs start at WRAM address 0; outputs follow at
:data:`OUTPUT_BASE`; per-tasklet scratch lives above :data:`SCRATCH_BASE`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.interpreter import ExecutionResult, run_program
from repro.dpu.isa import Program
from repro.dpu.memory import Wram
from repro.errors import DpuError

OUTPUT_BASE = 16 * 1024
SCRATCH_BASE = 48 * 1024


@dataclass(frozen=True)
class SampleProgram:
    """An assembled sample with its data-layout contract.

    ``n_tasklets`` is baked into the program at build time (the stride of
    the strided loops), exactly like the SDK's compile-time NR_TASKLETS.
    """

    program: Program
    n_elements: int
    n_tasklets: int = 11
    input_addr: int = 0
    output_addr: int = OUTPUT_BASE

    def run(
        self, input_values: np.ndarray
    ) -> tuple[np.ndarray, ExecutionResult]:
        """Load inputs, execute, and return (outputs, execution result)."""
        values = np.ascontiguousarray(input_values, dtype=np.int32)
        if values.size != self.n_elements:
            raise DpuError(
                f"program expects {self.n_elements} elements, "
                f"got {values.size}"
            )
        wram = Wram()
        wram.write_array(self.input_addr, values)
        result, wram = run_program(
            self.program, wram=wram, n_tasklets=self.n_tasklets
        )
        outputs = wram.read_array(self.output_addr, np.int32, self.n_elements)
        return outputs, result


def _strided_loop(
    body: str, n_elements: int, n_tasklets: int, *, extra_setup: str = ""
) -> str:
    """Boilerplate: every tasklet walks elements tid, tid+T, tid+2T, ...

    ``body`` computes on r7 (the loaded element) and leaves the result in
    r8; r4 holds the element byte offset.  The stride is the build-time
    tasklet count, like NR_TASKLETS in SDK code.
    """
    stride = 4 * n_tasklets
    return f"""
            tid  r1
            lsli r4, r1, 2          # byte offset of first element
            li   r5, {4 * n_elements}   # end offset
            {extra_setup}
        loop:
            bge  r4, r5, done
            lw   r7, r4, 0
            {body}
            li   r9, {OUTPUT_BASE}
            add  r9, r9, r4
            sw   r8, r9, 0
            addi r4, r4, {stride}
            j    loop
        done:
            halt
    """


def copy_program(n_elements: int, n_tasklets: int = 11) -> SampleProgram:
    """STREAM 'copy': out[i] = in[i]."""
    _check(n_elements)
    source = _strided_loop("move r8, r7", n_elements, n_tasklets)
    return SampleProgram(assemble(source, name="copy"), n_elements, n_tasklets)


def scale_program(
    n_elements: int, factor: int, n_tasklets: int = 11
) -> SampleProgram:
    """STREAM 'scale': out[i] = factor * in[i] (hardware 8x8 multiply)."""
    _check(n_elements)
    if not 0 <= factor <= 255:
        raise DpuError(f"scale factor {factor} outside the mul8 range")
    source = _strided_loop(
        f"li r10, {factor}\n            mul8 r8, r7, r10",
        n_elements,
        n_tasklets,
    )
    return SampleProgram(
        assemble(source, name="scale"), n_elements, n_tasklets
    )


def add_offset_program(
    n_elements: int, offset: int, n_tasklets: int = 11
) -> SampleProgram:
    """out[i] = in[i] + offset."""
    _check(n_elements)
    source = _strided_loop(f"addi r8, r7, {offset}", n_elements, n_tasklets)
    return SampleProgram(
        assemble(source, name="add_offset"), n_elements, n_tasklets
    )


def relu_program(n_elements: int, n_tasklets: int = 11) -> SampleProgram:
    """out[i] = max(in[i], 0) — the integer ReLU a quantized CNN needs."""
    _check(n_elements)
    body = """
            move r8, r7
            bge  r8, r0, positive
            li   r8, 0
        positive:"""
    return SampleProgram(
        assemble(_strided_loop(body, n_elements, n_tasklets), name="relu"),
        n_elements,
        n_tasklets,
    )


def saxpy_program(n_elements: int, a: int, n_tasklets: int = 11) -> SampleProgram:
    """out[i] = a * in[i] + out[i] (out preloaded by the host)."""
    _check(n_elements)
    if not 0 <= a <= 255:
        raise DpuError(f"coefficient {a} outside the mul8 range")
    body = f"""
            li   r10, {a}
            mul8 r8, r7, r10
            li   r9, {OUTPUT_BASE}
            add  r9, r9, r4
            lw   r11, r9, 0
            add  r8, r8, r11"""
    return SampleProgram(
        assemble(_strided_loop(body, n_elements, n_tasklets), name="saxpy"),
        n_elements,
        n_tasklets,
    )


def reduction_program(n_elements: int, n_tasklets: int = 11) -> SampleProgram:
    """Sum-reduce: partials per tasklet, barrier, tasklet 0 combines.

    The canonical two-phase pattern the sync primitives exist for; the
    total lands at ``OUTPUT_BASE``.
    """
    _check(n_elements)
    stride = 4 * n_tasklets
    source = f"""
            tid  r1
            lsli r4, r1, 2
            li   r5, {4 * n_elements}
            li   r6, 0              # partial sum
        loop:
            bge  r4, r5, partial_done
            lw   r7, r4, 0
            add  r6, r6, r7
            addi r4, r4, {stride}
            j    loop
        partial_done:
            tid  r1
            lsli r2, r1, 2
            li   r3, {SCRATCH_BASE}
            add  r2, r2, r3
            sw   r6, r2, 0          # scratch[tid] = partial
            barrier
            tid  r1
            bne  r1, r0, finish     # tasklet 0 combines
            li   r6, 0
            li   r2, {SCRATCH_BASE}
            li   r3, {SCRATCH_BASE + 4 * n_tasklets}
        combine:
            lw   r7, r2, 0
            add  r6, r6, r7
            addi r2, r2, 4
            blt  r2, r3, combine
            li   r9, {OUTPUT_BASE}
            sw   r6, r9, 0
        finish:
            halt
    """
    return SampleProgram(
        assemble(source, name="reduction"), n_elements, n_tasklets
    )


def dot_product_program(n_elements: int, n_tasklets: int = 11) -> SampleProgram:
    """Dot product of two preloaded vectors (in at 0, second at 4n).

    Multiplies with the 8x8 hardware unit (operands must be bytes) and
    reduces through a mutex-guarded accumulator at ``OUTPUT_BASE``.
    """
    _check(n_elements)
    stride = 4 * n_tasklets
    source = f"""
            tid  r1
            lsli r4, r1, 2
            li   r5, {4 * n_elements}
            li   r6, 0
        loop:
            bge  r4, r5, accumulate
            lw   r7, r4, 0
            li   r9, {4 * n_elements}
            add  r9, r9, r4
            lw   r8, r9, 0
            mul8 r7, r7, r8
            add  r6, r6, r7
            addi r4, r4, {stride}
            j    loop
        accumulate:
            li   r9, {OUTPUT_BASE}
            acquire 0
            lw   r7, r9, 0
            add  r7, r7, r6
            sw   r7, r9, 0
            release 0
            halt
    """
    return SampleProgram(
        assemble(source, name="dot"), n_elements, n_tasklets
    )


def mram_copy_program(
    n_chunks: int,
    *,
    src_addr: int = 0,
    dst_addr: int = 8 * 1024 * 1024,
    chunk_bytes: int = 2048,
) -> Program:
    """Bulk MRAM-to-MRAM copy staged through WRAM, 2048-byte DMA beats.

    The streaming pattern every MRAM-resident workload uses (and the
    program-level validation of Eq. 3.4: total DMA cycles must equal two
    full streamed transfers).  Single-tasklet: the DMA serializes anyway.
    """
    if n_chunks < 1:
        raise DpuError(f"need at least one chunk, got {n_chunks}")
    if chunk_bytes < 8 or chunk_bytes > 2048 or chunk_bytes % 8:
        raise DpuError(f"bad chunk size {chunk_bytes}")
    source = f"""
            li   r1, 0              # WRAM staging buffer
            li   r2, {src_addr}     # MRAM source cursor
            li   r3, {dst_addr}     # MRAM destination cursor
            li   r4, {n_chunks}
        loop:
            ldma r1, r2, {chunk_bytes}
            sdma r1, r3, {chunk_bytes}
            addi r2, r2, {chunk_bytes}
            addi r3, r3, {chunk_bytes}
            addi r4, r4, -1
            bne  r4, r0, loop
            halt
    """
    return assemble(source, name="mram_copy")


def _mul_const(rd: str, rs: str, value: int, scratch: str) -> str:
    """``rd = rs * value`` for ``rs`` below 256, lowered onto ``mul8``.

    A constant that fits the 8x8 multiplier takes one ``mul8``; a wider
    one takes one ``mul8`` per byte of the constant, shifted into place
    and summed — the partial products the toolchain builds wide
    multiplies from.  ``scratch`` is clobbered.
    """
    lines = [f"li   {rd}, {value & 0xFF}", f"mul8 {rd}, {rs}, {rd}"]
    shift = 8
    while value >> shift:
        lines += [
            f"li   {scratch}, {(value >> shift) & 0xFF}",
            f"mul8 {scratch}, {rs}, {scratch}",
            f"lsli {scratch}, {scratch}, {shift}",
            f"add  {rd}, {rd}, {scratch}",
        ]
        shift += 8
    return "\n".join(" " * 12 + line for line in lines)


def binary_conv_program(image_size: int, n_filters: int) -> SampleProgram:
    """The eBNN binary convolution, written in actual DPU assembly.

    One tasklet per filter computes a valid (no-padding) 3x3 binary
    correlation over a {0,1}-bit image: ``out = 2 * matches - 9``, the
    XNOR-popcount identity.  WRAM layout: image bits (one int32 word per
    pixel) at 0; per-filter weight bits at ``4 * image_size**2``; outputs
    at ``OUTPUT_BASE``, ``(image_size - 2)**2`` words per filter.  Shapes
    whose weights reach ``OUTPUT_BASE`` or whose outputs run past the end
    of WRAM are rejected.

    Exists to cross-validate the Python kernel's cost model against
    instruction-level execution (see the integration tests).
    """
    if image_size < 3 or image_size > 64:
        raise DpuError(f"image size {image_size} outside [3, 64]")
    if not 1 <= n_filters <= 24:
        raise DpuError(f"filter count {n_filters} outside [1, 24]")
    out_side = image_size - 2
    weight_base = 4 * image_size * image_size
    out_words_per_filter = out_side * out_side
    if weight_base + 36 * n_filters > OUTPUT_BASE:
        raise DpuError(
            f"{image_size}x{image_size} image and {n_filters} filters "
            f"reach the output region at {OUTPUT_BASE}"
        )
    out_bytes = 4 * n_filters * out_words_per_filter
    if OUTPUT_BASE + out_bytes > UPMEM_ATTRIBUTES.wram_bytes:
        raise DpuError(
            f"{n_filters} filters of {out_side}x{out_side} outputs run "
            f"past the end of WRAM"
        )
    source = f"""
            tid  r1                      # filter index
            li   r2, {n_filters}
            bge  r1, r2, finish          # spare tasklets exit
            li   r2, 36                  # 9 weight words x 4 bytes
            mul8 r2, r1, r2
            li   r3, {weight_base}
            add  r2, r2, r3              # r2 = this filter's weight base
{_mul_const("r3", "r1", 4 * out_words_per_filter, "r4")}
            li   r4, {OUTPUT_BASE}
            add  r3, r3, r4              # r3 = this filter's output base
            li   r6, 0                   # oy
        outer:
            li   r7, 0                   # ox
        inner:
            li   r8, 0                   # matches
            li   r9, 0                   # ky
        kyloop:
            li   r10, 0                  # kx
        kxloop:
            add  r11, r6, r9             # image row = oy + ky
            li   r12, {image_size}
            mul8 r11, r11, r12
            add  r11, r11, r7
            add  r11, r11, r10
            lsli r11, r11, 2
            lw   r12, r11, 0             # image bit
            lsli r13, r9, 1
            add  r13, r13, r9            # ky * 3
            add  r13, r13, r10
            lsli r13, r13, 2
            add  r13, r13, r2
            lw   r14, r13, 0             # weight bit
            xor  r15, r12, r14
            xori r15, r15, 1
            andi r15, r15, 1             # 1 when bits agree
            add  r8, r8, r15
            addi r10, r10, 1
            li   r16, 3
            blt  r10, r16, kxloop
            addi r9, r9, 1
            li   r16, 3
            blt  r9, r16, kyloop
            lsli r15, r8, 1
            addi r15, r15, -9            # out = 2 * matches - 9
            li   r16, {out_side}
            mul8 r16, r6, r16
            add  r16, r16, r7
            lsli r16, r16, 2
            add  r16, r16, r3
            sw   r15, r16, 0
            addi r7, r7, 1
            li   r16, {out_side}
            blt  r7, r16, inner
            addi r6, r6, 1
            li   r16, {out_side}
            blt  r6, r16, outer
        finish:
            halt
    """
    return SampleProgram(
        assemble(source, name="binary_conv"),
        n_elements=image_size * image_size,
        n_tasklets=n_filters,
    )


@dataclass(frozen=True)
class GemmProgram:
    """An assembled integer GEMM with its two-operand layout contract.

    ``C = A @ B`` for a (m, k) x (k, n) product with entries in [0, 255]
    (the 8x8 hardware multiplier's exact range).  WRAM layout: A
    row-major at 0, B row-major at ``4 * m * k``, C row-major at
    :data:`OUTPUT_BASE`.  Rows of C are strided over tasklets, the
    Section 4.2.3 work split.
    """

    program: Program
    m: int
    k: int
    n: int
    n_tasklets: int = 11

    def run(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, ExecutionResult]:
        """Load both operands, execute, and return (C, execution result)."""
        a = np.ascontiguousarray(a, dtype=np.int32)
        b = np.ascontiguousarray(b, dtype=np.int32)
        if a.shape != (self.m, self.k) or b.shape != (self.k, self.n):
            raise DpuError(
                f"operand shapes {a.shape} x {b.shape} do not match the "
                f"({self.m}, {self.k}) x ({self.k}, {self.n}) program"
            )
        for name, operand in (("A", a), ("B", b)):
            if operand.min() < 0 or operand.max() > 255:
                raise DpuError(
                    f"{name} entries outside [0, 255], the mul8 range"
                )
        wram = Wram()
        wram.write_array(0, a.reshape(-1))
        wram.write_array(4 * self.m * self.k, b.reshape(-1))
        result, wram = run_program(
            self.program, wram=wram, n_tasklets=self.n_tasklets
        )
        c = wram.read_array(OUTPUT_BASE, np.int32, self.m * self.n)
        return c.reshape(self.m, self.n), result


def gemm_program(m: int, k: int, n: int, n_tasklets: int = 11) -> GemmProgram:
    """Row-strided integer GEMM over the 8x8 hardware multiplier.

    Index arithmetic also rides mul8, which is exact because every factor
    (row index, k, n, inner index) stays within 8 bits — hence the
    dimension bound.  The second interpreter benchmark kernel next to the
    eBNN convolution: long stall-free inner runs broken by loads and the
    loop branch.
    """
    for name, dim in (("m", m), ("k", k), ("n", n)):
        if not 1 <= dim <= 64:
            raise DpuError(f"GEMM dimension {name}={dim} outside [1, 64]")
    if 4 * (m * k + k * n) > OUTPUT_BASE:
        raise DpuError(
            f"operands of {m}x{k} @ {k}x{n} exceed the input region "
            f"({OUTPUT_BASE} bytes)"
        )
    b_base = 4 * m * k
    source = f"""
            tid  r1                      # first C row of this tasklet
            li   r2, {m}
        rowloop:
            bge  r1, r2, finish
            li   r3, {k}
            mul8 r4, r1, r3
            lsli r4, r4, 2               # byte base of A row
            li   r5, {n}
            mul8 r6, r1, r5
            lsli r6, r6, 2
            li   r7, {OUTPUT_BASE}
            add  r6, r6, r7              # byte base of C row
            li   r7, 0                   # j
        colloop:
            bge  r7, r5, rowdone
            li   r8, 0                   # accumulator
            li   r9, 0                   # p
        kloop:
            bge  r9, r3, kdone
            lsli r10, r9, 2
            add  r10, r10, r4
            lw   r11, r10, 0             # A[r, p]
            mul8 r12, r9, r5
            add  r12, r12, r7
            lsli r12, r12, 2
            li   r13, {b_base}
            add  r12, r12, r13
            lw   r13, r12, 0             # B[p, j]
            mul8 r14, r11, r13
            add  r8, r8, r14
            addi r9, r9, 1
            j    kloop
        kdone:
            lsli r10, r7, 2
            add  r10, r10, r6
            sw   r8, r10, 0              # C[r, j]
            addi r7, r7, 1
            j    colloop
        rowdone:
            addi r1, r1, {n_tasklets}
            j    rowloop
        finish:
            halt
    """
    return GemmProgram(
        assemble(source, name="gemm"), m=m, k=k, n=n, n_tasklets=n_tasklets
    )


def _check(n_elements: int) -> None:
    if n_elements < 1:
        raise DpuError(f"need at least one element, got {n_elements}")
    if 4 * n_elements > OUTPUT_BASE:
        raise DpuError(
            f"{n_elements} elements exceed the input region "
            f"({OUTPUT_BASE} bytes)"
        )
