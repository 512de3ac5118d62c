"""The eBNN mapping scheme: multiple images per DPU (Section 4.1).

Scheme summary (Sections 4.1.3-4.1.4):

* Images are binarized and bit-packed (a 28x28 image is 98 bytes, padded
  to 104); **16 images** are staged per DPU because one MRAM->WRAM DMA
  transfer is capped at 2048 bytes (16 x 104 = 1664).
* Each tasklet processes whole images, so 16 tasklets saturate the
  16-image batch (the Fig. 4.7(a) shape).
* The conv-pool block runs on the DPU; BN + BinAct either runs in floating
  point on the DPU (the slow Fig. 4.2(a) path) or is replaced by the
  host-built Algorithm 1 LUT (Fig. 4.2(b)); the binary temporaries return
  to the host, which runs the FC + Softmax classifier.
* The batch's image buffer is divided by images-per-DPU to choose the DPU
  count; all chosen DPUs run in parallel, so a full batch finishes in the
  time of one DPU (Section 4.1.3).

The cost recipe (:func:`charge_ebnn_costs`) is the single source of truth
for eBNN DPU cycles: the functional kernel and the closed-form sweeps both
charge through it.  Likewise :class:`EbnnExecutor` is the one wave
implementation: the offline :class:`EbnnPimRunner` and the serving
``EbnnBackend`` are thin adapters over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.lut import LookupTable, create_lut
from repro.dpu.attributes import UpmemAttributes
from repro.dpu.costs import Operation, OptLevel, Precision
from repro.dpu.kernel import GLOBAL_KERNELS, KernelContext
from repro.dpu.device import DpuImage
from repro.dpu.profiler import SubroutineProfile
from repro.errors import MappingError
from repro.host.alignment import align_up
from repro.host.runtime import DpuSet, DpuSystem, LaunchReport
# pack_image and unpack_bits stay importable from here (the traced
# benchmark wraps these names).
from repro.nn.binary import pack_image, unpack_bits  # noqa: F401
from repro.nn.layers import binary_activation, softmax
from repro.nn.models.ebnn import EbnnConfig, EbnnModel

#: The per-DPU image batch the paper uses (Section 4.1.3).
IMAGES_PER_DPU = 16

#: Tasklets the paper settles on for eBNN (one per staged image).
EBNN_TASKLETS = 16

#: Extra plain instructions accompanying each conv MAC beyond the address
#: multiply: two WRAM loads, the XNOR/accumulate pair, and loop overhead.
_CONV_EXTRA_INSTR_PER_MAC = 7

#: Plain instructions per max-pool output (4 loads, 3 compares, addressing).
_POOL_INSTR_PER_OUTPUT = 9

#: Plain instructions per LUT lookup beyond its address arithmetic.
_LUT_EXTRA_INSTR = 4


@dataclass(frozen=True)
class EbnnDpuLayout:
    """MRAM symbol layout shared by host and kernel."""

    config: EbnnConfig
    images_per_dpu: int = IMAGES_PER_DPU

    @property
    def image_bytes(self) -> int:
        """Padded packed bytes of one binarized image."""
        packed = -(-self.config.image_size**2 // 8)
        return align_up(packed)

    @property
    def images_bytes(self) -> int:
        return self.images_per_dpu * self.image_bytes

    @property
    def result_bytes_per_image(self) -> int:
        """Padded packed bytes of one image's binary feature tensor."""
        bits = self.config.feature_count
        return align_up(-(-bits // 8))

    @property
    def results_bytes(self) -> int:
        return self.images_per_dpu * self.result_bytes_per_image

    @property
    def lut_bytes(self) -> int:
        lo, hi = self.config.conv_range
        return align_up((hi - lo + 1) * self.config.filters)

    @property
    def weight_bytes(self) -> int:
        """Packed binary conv weights (one bit per tap)."""
        bits = self.config.filters * self.config.kernel**2
        return align_up(-(-bits // 8))

    def build_image(self, name: str = "ebnn") -> DpuImage:
        return DpuImage.from_symbol_layout(
            name,
            kernel_name="ebnn_conv_pool",
            layout=[
                ("images", self.images_bytes),
                ("results", self.results_bytes),
                ("lut", self.lut_bytes),
                ("weights", self.weight_bytes),
                ("meta", 8),  # actual image count (the padded-size protocol)
            ],
        )


def charge_ebnn_costs(
    ctx: KernelContext,
    config: EbnnConfig,
    layout: EbnnDpuLayout,
    n_images: int,
    *,
    use_lut: bool,
) -> None:
    """Charge the DPU cost of conv-pool(+BN/BinAct) for ``n_images``.

    -O0 array indexing performs a 32-bit multiply per element access (the
    ``__mulsi3`` Fig. 4.3(b) shows surviving even the LUT transformation);
    the float path charges the full BN+BinAct subroutine chain per pooled
    value, the mix Fig. 4.3(a) profiles.
    """
    conv_macs = n_images * config.conv_macs_per_image()
    pooled = n_images * config.bn_outputs_per_image()

    # Staging DMA: images arrive in one transfer per 2048-byte window.
    ctx.charge_streamed_dma(n_images * layout.image_bytes)
    ctx.charge_streamed_dma(layout.weight_bytes)

    # Convolution + pooling (both paths).  At -O0 every array access pays a
    # __mulsi3 index multiply (the subroutine Fig. 4.3(b) shows surviving);
    # -O3 strength-reduces indexing into induction variables.
    unoptimized = ctx.opt_level is OptLevel.O0
    if unoptimized:
        ctx.charge_call("__mulsi3", conv_macs)
    ctx.charge_instructions(_CONV_EXTRA_INSTR_PER_MAC * conv_macs)
    ctx.charge_instructions(_POOL_INSTR_PER_OUTPUT * pooled)

    if use_lut:
        # One LUT staging transfer, then a lookup per pooled value.
        ctx.charge_streamed_dma(layout.lut_bytes)
        if unoptimized:
            ctx.charge_call("__mulsi3", pooled)   # flat-index multiply
            ctx.charge_call("__muldi3", pooled)   # 64-bit address formation
        ctx.charge_instructions(_LUT_EXTRA_INSTR * pooled)
    else:
        # Fig. 4.2(a): the float BN + BinAct chain per pooled value.
        ctx.charge_call("__floatsisf", pooled)            # int -> float
        ctx.charge_op(Operation.ADD, Precision.FLOAT_32, 2 * pooled)  # +W0, +W4
        ctx.charge_op(Operation.SUB, Precision.FLOAT_32, pooled)      # -W1
        ctx.charge_op(Operation.DIV, Precision.FLOAT_32, pooled)      # /W2
        ctx.charge_op(Operation.MUL, Precision.FLOAT_32, pooled)      # *W3
        ctx.charge_call("__gesf2", pooled)                # BinAct >= 0
        ctx.charge_call("__ltsf2", pooled)                # saturation guard
        ctx.charge_call("__fixsfsi", pooled)              # float -> int bit
        if unoptimized:
            ctx.charge_call("__mulsi3", pooled)           # indexing
            ctx.charge_call("__muldi3", pooled)           # 64-bit addressing

    # Result write-back.
    ctx.charge_streamed_dma(n_images * layout.result_bytes_per_image)
    ctx.set_work_units(n_images)


@GLOBAL_KERNELS.register("ebnn_conv_pool")
def ebnn_conv_pool_kernel(
    ctx: KernelContext,
    *,
    model: EbnnModel,
    layout: EbnnDpuLayout,
    use_lut: bool,
) -> None:
    """The DPU program of the eBNN scheme (functional + cycle-charged).

    Reads the packed images and the image count from MRAM, computes every
    image's binary features at once (via the LUT read back from MRAM, or
    the float BN path), and writes the packed feature bits to the
    ``results`` symbol.  ``EbnnModel.conv_pool`` with
    ``LookupTable.lookup_all`` or ``EbnnModel.bn_binact_float`` is the
    per-image oracle the tests hold this batched form to.
    """
    config = model.config
    n_images = int(ctx.read_symbol_array("meta", np.uint32, 1)[0])
    if not 1 <= n_images <= layout.images_per_dpu:
        raise MappingError(
            f"DPU metadata declares {n_images} images; layout holds "
            f"up to {layout.images_per_dpu}"
        )

    size = config.image_size
    packed = ctx.read_symbol_array(
        "images", np.uint8, n_images * layout.image_bytes
    ).reshape(n_images, layout.image_bytes)
    bits = np.unpackbits(packed, axis=1, count=size * size, bitorder="little")
    pooled = _conv_pool_batch(model, bits.reshape(n_images, size, size))
    per_filter = (-1, 1, 1, 1)  # pooled is (filters, n, p, p)
    if use_lut:
        lo, hi = config.conv_range
        raw = ctx.read_symbol_array("lut", np.uint8, layout.lut_bytes).tobytes()
        lut = LookupTable.from_bytes(raw, lo, hi, config.filters)
        offsets = pooled - lo
        if offsets.min() < 0 or offsets.max() >= lut.range_size:
            raise MappingError("feature map contains values outside LUT range")
        filters = np.arange(config.filters).reshape(per_filter)
        features = lut.table[offsets * config.filters + filters]
    else:
        bn = model.bn
        tmp = pooled.astype(np.float64) + bn.w0.reshape(per_filter)
        tmp = (tmp - bn.w1.reshape(per_filter)) / bn.w2.reshape(per_filter)
        tmp = tmp * bn.w3.reshape(per_filter) + bn.w4.reshape(per_filter)
        features = binary_activation(tmp)

    # Pack each image's (filters, p, p) bits, the reference order.
    flat = features.transpose(1, 0, 2, 3).reshape(n_images, -1)
    row_bits = np.packbits(flat.astype(np.uint8), axis=1, bitorder="little")
    rows = np.zeros((n_images, layout.result_bytes_per_image), dtype=np.uint8)
    rows[:, : row_bits.shape[1]] = row_bits
    ctx.write_symbol_array("results", rows)

    charge_ebnn_costs(ctx, config, layout, n_images, use_lut=use_lut)


def _conv_pool_batch(model: EbnnModel, bits: np.ndarray) -> np.ndarray:
    """Binary conv + integer max-pool of (n, H, W) {0,1} images.

    Returns (filters, n, p, p) integers; ``[:, i]`` equals
    ``model.conv_pool`` of image ``i``.  The convolution is one matmul
    of the filters against the k*k shifted copies of the batch; float32
    holds the binary tap sums (at most k*k) exactly.
    """
    cfg = model.config
    n, size = bits.shape[:2]
    k, pad, pool = cfg.kernel, cfg.kernel // 2, cfg.pool
    out = size + 2 * pad - k + 1
    # {-1,+1} signs; padding contributes -1, as in binary_conv2d.
    signs = np.full((n, size + 2 * pad, size + 2 * pad), -1, dtype=np.float32)
    signs[:, pad : pad + size, pad : pad + size] = bits.astype(np.float32) * 2 - 1
    taps = np.empty((k * k, n, out, out), dtype=np.float32)
    for ky in range(k):
        for kx in range(k):
            taps[ky * k + kx] = signs[:, ky : ky + out, kx : kx + out]
    weights = model.conv_weights.astype(np.int32).reshape(-1, k * k)
    conv = (weights.astype(np.float32) @ taps.reshape(k * k, -1)).reshape(
        -1, n, out, out
    )
    p = out // pool
    pooled = None
    for dy in range(pool):
        for dx in range(pool):
            patch = conv[..., dy : dy + p * pool : pool, dx : dx + p * pool : pool]
            pooled = patch if pooled is None else np.maximum(pooled, patch)
    return pooled.astype(np.int64)


class EbnnExecutor:
    """The multi-image-per-DPU eBNN wave, shared by offline and serving.

    Owns the layout, the program image and the Algorithm 1 LUT.
    :meth:`warm` loads the image and broadcasts the LUT once per allocated
    set; each wave then only scatters packed images and per-DPU counts
    onto the DPUs that hold at least one image (:meth:`stage`), and
    :meth:`classify` reads a DPU's binary features back and runs the
    host-side FC + softmax.
    """

    #: Host-side FC+softmax time per image (a Xeon-class constant; the
    #: host overlaps this with nothing in the thesis's serial read-out).
    HOST_SECONDS_PER_IMAGE = 2.0e-6

    def __init__(
        self,
        model: EbnnModel,
        *,
        use_lut: bool = True,
        images_per_dpu: int = IMAGES_PER_DPU,
        n_tasklets: int = EBNN_TASKLETS,
        opt_level: OptLevel = OptLevel.O3,
    ) -> None:
        if images_per_dpu < 1:
            raise MappingError(
                f"images_per_dpu must be >= 1, got {images_per_dpu}"
            )
        self.model = model
        self.use_lut = use_lut
        self.layout = EbnnDpuLayout(model.config, images_per_dpu)
        staged = self.layout.images_bytes
        if staged > 2048:
            raise MappingError(
                f"{images_per_dpu} images need {staged} bytes of staging; "
                f"the DMA transfer cap is 2048 (Section 4.1.3)"
            )
        self.image = self.layout.build_image()
        self.lut = (
            create_lut(model.bn, *model.config.conv_range) if use_lut else None
        )
        #: Keyword arguments of every set launch of the conv-pool kernel.
        #: workers=1: the batched kernel takes about 1 ms per DPU, less
        #: than shipping a DPU's state to a worker process and back.
        self.launch_args = dict(
            n_tasklets=n_tasklets,
            opt_level=opt_level,
            workers=1,
            model=model,
            layout=self.layout,
            use_lut=use_lut,
        )

    def warm(self, dpu_set: DpuSet) -> None:
        """Load the kernel image and broadcast the LUT onto a fresh set."""
        dpu_set.load(self.image)
        if self.use_lut:
            lut_raw = self.lut.to_bytes().ljust(self.layout.lut_bytes, b"\0")
            dpu_set.broadcast("lut", np.frombuffer(lut_raw, dtype=np.uint8))

    def check_images(self, images) -> np.ndarray:
        """``images`` as an (n, size, size) array.

        Raises :class:`MappingError` naming the first image whose shape
        is not the model's (size, size).
        """
        size = self.model.config.image_size
        if not (isinstance(images, np.ndarray) and images.shape[1:] == (size, size)):
            for index, image in enumerate(images):
                if np.shape(image) != (size, size):
                    raise MappingError(
                        f"image {index} has shape {np.shape(image)}; the "
                        f"model takes ({size}, {size}) images"
                    )
        return np.asarray(images)

    def stage(self, members, attributes, images) -> tuple[DpuSet, list[int]]:
        """Scatter one wave of images onto warm ``members``.

        Images fill the members in order, ``images_per_dpu`` to a DPU;
        only the DPUs that receive at least one image join the returned
        launch view.  Also returns each view DPU's image count.  Each
        image is bit-packed as :func:`pack_image` packs it (threshold
        0.5) and zero-padded to the layout's ``image_bytes``.
        """
        layout = self.layout
        per_dpu = layout.images_per_dpu
        images = self.check_images(images)
        n_active = min(len(members), -(-len(images) // per_dpu))
        images = images[: n_active * per_dpu]
        view = DpuSet(list(members[:n_active]), attributes)
        view.image = self.image  # loaded by warm(); no reload needed
        bits = (images >= 0.5).reshape(len(images), -1)
        packed = np.packbits(bits, axis=1, bitorder="little")
        rows = np.zeros((n_active * per_dpu, layout.image_bytes), dtype=np.uint8)
        rows[: len(images), : packed.shape[1]] = packed
        view.scatter("images", list(rows.reshape(n_active, layout.images_bytes)))
        counts = [min(per_dpu, len(images) - d * per_dpu) for d in range(n_active)]
        view.scatter("meta", [np.array([c, 0], dtype=np.uint32) for c in counts])
        return view, counts

    def classify(self, dpu, count: int) -> list[int]:
        """Labels of the first ``count`` images whose features ``dpu`` holds.

        One FC matmul and a row-wise softmax over the DPU's rows, equal
        per image to :meth:`EbnnModel.classify_features`.
        """
        row_bytes = self.layout.result_bytes_per_image
        raw = dpu.read_symbol("results", count * row_bytes)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(count, row_bytes)
        bits = np.unpackbits(
            rows, axis=1, count=self.model.config.feature_count,
            bitorder="little",
        )
        # float32 holds the integer logits (at most feature_count) exactly.
        signs = bits.astype(np.float32) * 2 - 1
        logits = signs @ self.model.fc_weights.T.astype(np.float32)
        probs = softmax(logits)
        return [int(label) for label in np.argmax(probs, axis=1)]


@dataclass
class EbnnRunResult:
    """Outcome of one batched eBNN inference on the PIM system."""

    predictions: np.ndarray
    dpu_report: LaunchReport
    n_dpus: int
    n_images: int
    profile: SubroutineProfile
    host_seconds: float

    @property
    def dpu_seconds(self) -> float:
        return self.dpu_report.seconds

    @property
    def total_seconds(self) -> float:
        return self.dpu_seconds + self.host_seconds

    @property
    def seconds_per_image(self) -> float:
        return self.total_seconds / self.n_images


class EbnnPimRunner:
    """Offline eBNN batches: allocate, run :class:`EbnnExecutor` waves.

    Keyword options (``use_lut``, ``images_per_dpu``, ``n_tasklets``,
    ``opt_level``) are the executor's.
    """

    def __init__(self, system: DpuSystem, model: EbnnModel, **options) -> None:
        self.system = system
        self.model = model
        self.executor = EbnnExecutor(model, **options)

    def run(self, images: np.ndarray) -> EbnnRunResult:
        """Classify a (n, H, W) batch through the PIM system.

        Batches larger than the system's capacity execute in waves: every
        available DPU processes its image block, results are gathered,
        and the next wave launches — total time is the sum of the waves.
        """
        images = self.executor.check_images(images)
        n_images = images.shape[0]
        if n_images < 1:
            raise MappingError("empty image batch")
        per_dpu = self.executor.layout.images_per_dpu
        n_dpus = self.system.dpus_needed_for(n_images, per_dpu)
        wave_capacity = n_dpus * per_dpu

        with telemetry.span(
            "ebnn.run",
            category="pipeline",
            n_images=n_images,
            n_dpus=n_dpus,
            use_lut=self.executor.use_lut,
        ):
            dpu_set = self.system.allocate(n_dpus)
            try:
                self.executor.warm(dpu_set)
                waves = [
                    self._run_wave(dpu_set, images[start : start + wave_capacity])
                    for start in range(0, n_images, wave_capacity)
                ]
            finally:
                self.system.free(dpu_set)
        if len(waves) == 1:
            return waves[0]
        return self._merge_waves(waves)

    def _merge_waves(self, waves: list["EbnnRunResult"]) -> "EbnnRunResult":
        """Combine sequential wave results into one batch result."""
        combined_profile = SubroutineProfile()
        for wave in waves:
            combined_profile = combined_profile.merged_with(wave.profile)
        total_cycles = sum(w.dpu_report.cycles for w in waves)
        slowest = max(waves, key=lambda w: w.dpu_report.cycles)
        report = LaunchReport(
            cycles=total_cycles,
            seconds=self.system.attributes.cycles_to_seconds(total_cycles),
            per_dpu_cycles=slowest.dpu_report.per_dpu_cycles,
            n_dpus=slowest.dpu_report.n_dpus,
            n_tasklets=slowest.dpu_report.n_tasklets,
            fault_policy=slowest.dpu_report.fault_policy,
            outcomes=[o for w in waves for o in w.dpu_report.outcomes],
        )
        return EbnnRunResult(
            predictions=np.concatenate([w.predictions for w in waves]),
            dpu_report=report,
            n_dpus=slowest.n_dpus,
            n_images=sum(w.n_images for w in waves),
            profile=combined_profile,
            host_seconds=sum(w.host_seconds for w in waves),
        )

    def _run_wave(self, dpu_set, images: np.ndarray) -> EbnnRunResult:
        executor = self.executor
        n_images = images.shape[0]
        with telemetry.span("ebnn.wave", category="pipeline", n_images=n_images):
            view, counts = executor.stage(
                dpu_set.dpus, self.system.attributes, images
            )
            report = view.launch(**executor.launch_args)

            # Serial host read-out and classification (Section 4.1.3's flow).
            host_seconds = executor.HOST_SECONDS_PER_IMAGE * n_images
            with telemetry.span(
                "ebnn.host_classify", n_images=n_images,
                host_seconds=host_seconds,
            ):
                labels: list[int] = []
                profile = SubroutineProfile()
                for dpu, count in zip(view, counts):
                    # A DPU isolated by the fault policy has no result for
                    # this launch; its (restored, pre-launch) results symbol
                    # still classifies, just from stale features.
                    if dpu.last_result is not None:
                        profile = profile.merged_with(dpu.last_result.profile)
                    labels += executor.classify(dpu, count)
                telemetry.advance_sim(host_seconds)

        return EbnnRunResult(
            predictions=np.array(labels, dtype=np.int64),
            dpu_report=report,
            n_dpus=len(dpu_set),
            n_images=n_images,
            profile=profile,
            host_seconds=host_seconds,
        )


def ebnn_dpu_cycles(
    config: EbnnConfig,
    *,
    n_images: int = IMAGES_PER_DPU,
    n_tasklets: int = EBNN_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    use_lut: bool = True,
    images_per_dpu: int = IMAGES_PER_DPU,
) -> float:
    """Closed-form DPU cycles for one eBNN batch (no functional compute).

    Shares :func:`charge_ebnn_costs` with the kernel, so sweeps (Figs. 4.4
    and 4.7) and functional runs can never drift apart.
    """
    from repro.dpu.memory import Mram, Wram

    layout = EbnnDpuLayout(config, images_per_dpu)
    ctx = KernelContext(
        Mram(), Wram(), n_tasklets=n_tasklets, opt_level=opt_level
    )
    charge_ebnn_costs(ctx, config, layout, n_images, use_lut=use_lut)
    return ctx.elapsed_cycles()


def ebnn_image_latency_seconds(
    config: EbnnConfig,
    attributes: UpmemAttributes,
    **kwargs,
) -> float:
    """Per-image DPU latency in seconds for a full 16-image batch."""
    n_images = kwargs.pop("n_images", IMAGES_PER_DPU)
    cycles = ebnn_dpu_cycles(config, n_images=n_images, **kwargs)
    return attributes.cycles_to_seconds(cycles) / n_images
