"""Tests for repro.host.transfer (SDK transfer semantics)."""

import numpy as np
import pytest

from repro.dpu.device import Dpu, DpuImage
from repro.host import transfer
from repro.host.transfer import XferBatch, XferDirection
from repro.errors import TransferError


def make_dpus(n=3, symbol_size=64):
    image = DpuImage.from_symbol_layout(
        "xfer_test", kernel_name="test_double", layout=[("data", symbol_size)]
    )
    dpus = []
    for i in range(n):
        dpu = Dpu(i)
        dpu.load(image)
        dpus.append(dpu)
    return dpus


class TestCopyTo:
    def test_broadcast_reaches_all_dpus(self, traffic):
        dpus = make_dpus()
        transfer.copy_to(dpus, "data", b"ABCDEFGH")
        for dpu in dpus:
            assert dpu.read_symbol("data", 8) == b"ABCDEFGH"
        assert traffic()["to_dpu"] == 24
        assert traffic()["broadcasts"] == 1

    def test_numpy_payload(self):
        dpus = make_dpus(1)
        values = np.arange(4, dtype=np.int16)
        transfer.copy_to(dpus, "data", values)
        assert np.array_equal(
            dpus[0].read_symbol_array("data", np.int16, 4), values
        )

    def test_offset_write(self):
        dpus = make_dpus(1)
        transfer.copy_to(dpus, "data", b"ABCDEFGH", symbol_offset=8)
        assert dpus[0].read_symbol("data", 8, offset=8) == b"ABCDEFGH"

    def test_unaligned_size_rejected(self):
        with pytest.raises(TransferError):
            transfer.copy_to(make_dpus(1), "data", b"abc")


class TestCopyFrom:
    def test_reads_back(self, traffic):
        dpus = make_dpus(1)
        dpus[0].write_symbol("data", b"12345678")
        assert transfer.copy_from(dpus[0], "data", 8) == b"12345678"
        assert traffic()["from_dpu"] == 8

    def test_unaligned_rejected(self):
        with pytest.raises(TransferError):
            transfer.copy_from(make_dpus(1)[0], "data", 5)


class TestXferBatch:
    def test_scatter_different_buffers(self):
        dpus = make_dpus(3)
        batch = XferBatch()
        for i, dpu in enumerate(dpus):
            batch.prepare(dpu, bytes([i]) * 8)
        batch.push(XferDirection.TO_DPU, "data")
        for i, dpu in enumerate(dpus):
            assert dpu.read_symbol("data", 8) == bytes([i]) * 8

    def test_gather(self):
        dpus = make_dpus(2)
        dpus[0].write_symbol("data", b"AAAAAAAA")
        dpus[1].write_symbol("data", b"BBBBBBBB")
        batch = XferBatch()
        for dpu in dpus:
            batch.prepare(dpu, bytearray(8))
        results = batch.push(XferDirection.FROM_DPU, "data", length=8)
        assert results == [b"AAAAAAAA", b"BBBBBBBB"]

    def test_length_bounds_transfer(self):
        """The paper's mechanism: push only the valid prefix."""
        dpus = make_dpus(1)
        batch = XferBatch()
        batch.prepare(dpus[0], b"VALIDPAD" + b"X" * 8)
        batch.push(XferDirection.TO_DPU, "data", length=8)
        assert dpus[0].read_symbol("data", 8) == b"VALIDPAD"
        assert dpus[0].read_symbol("data", 8, offset=8) == bytes(8)

    def test_mismatched_buffer_sizes_need_explicit_length(self):
        dpus = make_dpus(2)
        batch = XferBatch()
        batch.prepare(dpus[0], b"A" * 8)
        batch.prepare(dpus[1], b"B" * 16)
        with pytest.raises(TransferError, match="differing sizes"):
            batch.push(XferDirection.TO_DPU, "data")

    def test_short_buffer_rejected(self):
        dpus = make_dpus(1)
        batch = XferBatch()
        batch.prepare(dpus[0], b"AB")
        with pytest.raises(TransferError, match="shorter"):
            batch.push(XferDirection.TO_DPU, "data", length=8)

    def test_empty_push_rejected(self):
        with pytest.raises(TransferError, match="no prepared"):
            XferBatch().push(XferDirection.TO_DPU, "data")

    def test_push_clears_prepared(self):
        dpus = make_dpus(1)
        batch = XferBatch()
        batch.prepare(dpus[0], b"12345678")
        batch.push(XferDirection.TO_DPU, "data")
        with pytest.raises(TransferError):
            batch.push(XferDirection.TO_DPU, "data")

    def test_pushed_bytearray_is_copied_into_mram(self):
        dpus = make_dpus(1)
        buffer = bytearray(b"ORIGINAL")
        batch = XferBatch()
        batch.prepare(dpus[0], buffer)
        batch.push(XferDirection.TO_DPU, "data")
        buffer[:] = b"CHANGED!"
        assert dpus[0].read_symbol("data", 8) == b"ORIGINAL"

    def test_numpy_buffer_pushes_its_bytes(self):
        dpus = make_dpus(1)
        values = np.arange(4, dtype=np.int32)
        batch = XferBatch()
        batch.prepare(dpus[0], values)
        batch.push(XferDirection.TO_DPU, "data")
        assert np.array_equal(
            dpus[0].read_symbol_array("data", np.int32, 4), values
        )

    def test_gather_fills_prepared_bytearray(self):
        dpus = make_dpus(1)
        dpus[0].write_symbol("data", b"FILLED!!")
        buffer = bytearray(16)
        batch = XferBatch()
        batch.prepare(dpus[0], buffer)
        batch.push(XferDirection.FROM_DPU, "data", length=8)
        assert buffer == b"FILLED!!" + bytes(8)


class TestRowHelpers:
    def test_scatter_rows_pads_to_common_length(self):
        dpus = make_dpus(2)
        rows = [np.arange(3, dtype=np.int16), np.arange(4, dtype=np.int16)]
        length = transfer.scatter_rows(dpus, "data", rows)
        assert length == 8  # 4 int16 = 8 bytes, padded up
        assert np.array_equal(
            dpus[0].read_symbol_array("data", np.int16, 3), rows[0]
        )
        assert np.array_equal(
            dpus[1].read_symbol_array("data", np.int16, 4), rows[1]
        )

    def test_scatter_rows_zero_fills_each_row_to_the_longest(self):
        dpus = make_dpus(3)
        for dpu in dpus:
            dpu.write_symbol("data", b"\xff" * 24)
        rows = [b"abc", b"0123456789", bytearray(b"x" * 16)]
        assert transfer.scatter_rows(dpus, "data", rows) == 16
        assert dpus[0].read_symbol("data", 24) == (
            b"abc" + bytes(13) + b"\xff" * 8
        )
        assert dpus[1].read_symbol("data", 16) == b"0123456789" + bytes(6)
        assert dpus[2].read_symbol("data", 16) == b"x" * 16

    def test_scatter_count_mismatch(self):
        with pytest.raises(TransferError, match="counts must match"):
            transfer.scatter_rows(make_dpus(2), "data", [b"x" * 8])

    def test_gather_rows(self):
        dpus = make_dpus(2)
        dpus[0].write_symbol("data", b"11111111")
        dpus[1].write_symbol("data", b"22222222")
        rows = transfer.gather_rows(dpus, "data", 8)
        assert rows == [b"11111111", b"22222222"]
