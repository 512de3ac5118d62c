"""The batched eBNN wave against its per-image references.

``ebnn_conv_pool_kernel`` runs one conv-pool over all of a DPU's staged
images, ``EbnnExecutor.stage`` packs a wave in one ``packbits`` and
``EbnnExecutor.classify`` runs one FC matmul per DPU.  Each must agree
with the per-image path it replaced: ``EbnnModel.conv_pool`` with
``LookupTable.lookup_all`` / ``EbnnModel.bn_binact_float``,
``pack_image`` and ``EbnnModel.classify_features``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lut import LookupTable, create_lut
from repro.core.mapping_ebnn import (
    EbnnDpuLayout,
    EbnnExecutor,
    EbnnPimRunner,
    charge_ebnn_costs,
    ebnn_conv_pool_kernel,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.dpu.kernel import KernelContext
from repro.dpu.memory import Mram, Wram
from repro.errors import MappingError
from repro.host.runtime import DpuSystem
from repro.nn.binary import pack_bits, pack_image, unpack_image
from repro.nn.models.ebnn import EbnnConfig, EbnnModel

SMALL = UPMEM_ATTRIBUTES.scaled(4)

#: An odd image side (the pool drops the last row and column) and a
#: 5x5 kernel (LUT range [-25, 25]).
ODD_CONFIG = EbnnConfig(image_size=27, kernel=5)


def reweighted_model() -> EbnnModel:
    """A model whose conv weights were replaced after construction."""
    model = EbnnModel(seed=5)
    rng = np.random.default_rng(99)
    model.conv_weights = rng.choice(
        np.array([-1, 1], dtype=np.int8), size=model.conv_weights.shape
    )
    return model


MODELS = {
    "default": EbnnModel(),
    "reweighted": reweighted_model(),
    "odd": EbnnModel(ODD_CONFIG, seed=3),
}


def per_image_kernel(ctx, *, model, layout, use_lut):
    """The conv-pool kernel one image at a time, through the references."""
    config = model.config
    size = config.image_size
    n_images = int(ctx.read_symbol_array("meta", np.uint32, 1)[0])
    lo, hi = config.conv_range
    raw_lut = ctx.read_symbol_array("lut", np.uint8, layout.lut_bytes).tobytes()
    lut = LookupTable.from_bytes(raw_lut, lo, hi, config.filters)
    for i in range(n_images):
        raw = ctx.read_symbol_array(
            "images", np.uint8, layout.image_bytes,
            offset=i * layout.image_bytes,
        ).tobytes()
        signs = unpack_image(raw, size, size)
        pooled = model.conv_pool((signs > 0).astype(np.float32))
        if use_lut:
            bits = lut.lookup_all(pooled)
        else:
            bits = model.bn_binact_float(pooled)
        packed = pack_bits(bits.reshape(-1).astype(np.uint8))
        row = packed.ljust(layout.result_bytes_per_image, b"\0")
        ctx.write_symbol_array(
            "results", np.frombuffer(row, dtype=np.uint8),
            offset=i * layout.result_bytes_per_image,
        )
    charge_ebnn_costs(ctx, config, layout, n_images, use_lut=use_lut)


def run_kernel(kernel, model, images, use_lut):
    """Stage ``images`` reference-packed on a fresh MRAM; run ``kernel``."""
    layout = EbnnDpuLayout(model.config)
    ctx = KernelContext(
        Mram(), Wram(), n_tasklets=16, opt_level=OptLevel.O0,
        symbols=layout.build_image().symbols,
    )
    packed = b"".join(pack_image(img).ljust(layout.image_bytes, b"\0") for img in images)
    ctx.write_symbol_array("images", np.frombuffer(packed, dtype=np.uint8))
    ctx.write_symbol_array("meta", np.array([len(images), 0], dtype=np.uint32))
    lut = create_lut(model.bn, *model.config.conv_range).to_bytes()
    ctx.write_symbol_array("lut", np.frombuffer(lut, dtype=np.uint8))
    kernel(ctx, model=model, layout=layout, use_lut=use_lut)
    results = ctx.read_symbol_array("results", np.uint8, layout.results_bytes)
    return results.tobytes(), ctx.result()


def draw_images(kind: str, count: int, size: int, seed: int) -> np.ndarray:
    if kind == "zeros":
        return np.zeros((count, size, size))
    if kind == "ones":
        return np.ones((count, size, size))
    rng = np.random.default_rng(seed)
    return rng.random((count, size, size))


class TestKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        model_name=st.sampled_from(sorted(MODELS)),
        kind=st.sampled_from(["random", "random", "zeros", "ones"]),
        count=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        use_lut=st.booleans(),
    )
    def test_matches_per_image_reference(self, model_name, kind, count, seed, use_lut):
        model = MODELS[model_name]
        images = draw_images(kind, count, model.config.image_size, seed)
        got = run_kernel(ebnn_conv_pool_kernel, model, images, use_lut)
        want = run_kernel(per_image_kernel, model, images, use_lut)
        assert got[0] == want[0]
        assert got[1] == want[1]

    def test_out_of_range_conv_rejected_like_lookup_all(self):
        model = EbnnModel()
        model.conv_weights = model.conv_weights * 2  # sums leave [-9, 9]
        images = np.ones((2, 28, 28))
        with pytest.raises(MappingError, match="outside LUT range"):
            run_kernel(ebnn_conv_pool_kernel, model, images, True)
        with pytest.raises(MappingError, match="outside LUT range"):
            run_kernel(per_image_kernel, model, images, True)


def warm_executor(model, n_dpus=3):
    system = DpuSystem(SMALL)
    dpu_set = system.allocate(n_dpus)
    executor = EbnnExecutor(model)
    executor.warm(dpu_set)
    return executor, dpu_set


class TestStage:
    @settings(max_examples=25, deadline=None)
    @given(
        model_name=st.sampled_from(["default", "odd"]),
        count=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
        as_list=st.booleans(),
    )
    def test_bytes_match_pack_image(self, model_name, count, seed, as_list):
        model = MODELS[model_name]
        size = model.config.image_size
        rng = np.random.default_rng(seed)
        # Values on the 0.5 threshold exercise the >= rule.
        images = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], (count, size, size))
        executor, dpu_set = warm_executor(model)
        layout = executor.layout
        staged = list(images) if as_list else images
        view, counts = executor.stage(dpu_set.dpus, SMALL, staged)

        per_dpu = layout.images_per_dpu
        assert counts == [
            min(per_dpu, count - d * per_dpu)
            for d in range(-(-count // per_dpu))
        ]
        for d, dpu in enumerate(view):
            chunk = images[d * per_dpu : (d + 1) * per_dpu]
            want = b"".join(
                pack_image(img).ljust(layout.image_bytes, b"\0") for img in chunk
            ).ljust(layout.images_bytes, b"\0")
            assert dpu.read_symbol("images", layout.images_bytes) == want
            meta = np.frombuffer(dpu.read_symbol("meta", 8), dtype=np.uint32)
            assert meta.tolist() == [counts[d], 0]

    @pytest.mark.parametrize(
        "shape", [(4, 27, 27), (4, 30, 30), (4, 28, 28, 1)]
    )
    def test_wrong_batch_shape_rejected(self, shape):
        executor, dpu_set = warm_executor(EbnnModel())
        with pytest.raises(MappingError, match=r"image 0 has shape \("):
            executor.stage(dpu_set.dpus, SMALL, np.zeros(shape))

    def test_wrong_image_in_list_named(self):
        executor, dpu_set = warm_executor(EbnnModel())
        images = [np.zeros((28, 28)) for _ in range(8)]
        images[5] = np.zeros((30, 30))
        with pytest.raises(MappingError, match=r"image 5 has shape \(30, 30\)"):
            executor.stage(dpu_set.dpus, SMALL, images)

    def test_runner_rejects_before_allocating(self):
        system = DpuSystem(SMALL)
        runner = EbnnPimRunner(system, EbnnModel())
        with pytest.raises(MappingError, match=r"\(27, 27\)"):
            runner.run(np.zeros((20, 27, 27)))
        assert system.n_free == SMALL.n_dpus


class TestClassify:
    @settings(max_examples=25, deadline=None)
    @given(
        model_name=st.sampled_from(["default", "odd"]),
        count=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_labels_match_classify_features(self, model_name, count, seed):
        model = MODELS[model_name]
        cfg = model.config
        executor, dpu_set = warm_executor(model, n_dpus=1)
        rng = np.random.default_rng(seed)
        features = rng.integers(0, 2, (count, cfg.feature_count), dtype=np.uint8)
        row_bytes = executor.layout.result_bytes_per_image
        raw = b"".join(pack_bits(f).ljust(row_bytes, b"\0") for f in features)
        dpu = dpu_set.dpus[0]
        dpu.write_symbol("results", raw)

        want = [
            model.classify_features(
                f.reshape(cfg.filters, cfg.pooled_out, cfg.pooled_out)
            )[0]
            for f in features
        ]
        assert executor.classify(dpu, count) == want
