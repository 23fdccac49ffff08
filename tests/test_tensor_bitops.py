"""Unit tests for the IEEE-754 bit manipulation primitives."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    BitFlipRecord,
    bit_width,
    bits_to_float,
    flip_bit,
    flip_bit_scalar,
    float_to_bits,
    format_bits,
    get_bit,
    set_bit,
)


class TestFloatBitsRoundTrip:
    def test_float32_round_trip(self):
        values = np.array([0.0, 1.0, -1.5, 3.14159, 1e-30, 1e30], dtype=np.float32)
        bits = float_to_bits(values, "float32")
        assert bits.dtype == np.uint32
        restored = bits_to_float(bits, "float32")
        np.testing.assert_array_equal(values, restored)

    def test_float16_round_trip(self):
        values = np.array([0.0, 1.0, -2.5, 0.333], dtype=np.float16)
        restored = bits_to_float(float_to_bits(values, "float16"), "float16")
        np.testing.assert_array_equal(values, restored)

    def test_scalar_input(self):
        bits = float_to_bits(1.0, "float32")
        assert int(bits) == 0x3F800000

    def test_known_pattern_minus_two(self):
        # -2.0 in IEEE-754 float32 is 0xC0000000.
        assert int(float_to_bits(-2.0, "float32")) == 0xC0000000


class TestGetSetBit:
    def test_get_sign_bit(self):
        assert int(get_bit(-1.0, 31, "float32")) == 1
        assert int(get_bit(1.0, 31, "float32")) == 0

    def test_get_exponent_bits_of_one(self):
        # 1.0 = exponent 127 = 0111_1111 in bits 23..30.
        assert int(get_bit(1.0, 30, "float32")) == 0
        for position in range(23, 30):
            assert int(get_bit(1.0, position, "float32")) == 1

    def test_set_bit_to_one(self):
        result = set_bit(0.0, 31, 1, "float32")
        assert float(result) == 0.0  # -0.0 compares equal to 0.0
        assert int(get_bit(result, 31, "float32")) == 1

    def test_set_bit_is_idempotent(self):
        once = set_bit(3.0, 30, 1, "float32")
        twice = set_bit(once, 30, 1, "float32")
        np.testing.assert_array_equal(once, twice)

    def test_set_bit_invalid_value(self):
        with pytest.raises(ValueError):
            set_bit(1.0, 5, 2, "float32")


class TestFlipBit:
    def test_flip_sign_bit_negates(self):
        flipped = flip_bit(np.array([1.0, -3.5], dtype=np.float32), 31, "float32")
        np.testing.assert_allclose(flipped, [-1.0, 3.5])

    def test_flip_msb_exponent_explodes_value(self):
        # Flipping exponent bit 30 of 1.0 gives 2^128-ish magnitude (3.4e38).
        flipped = float(flip_bit(1.0, 30, "float32"))
        assert flipped > 1e38

    def test_flip_mantissa_bit_small_change(self):
        flipped = float(flip_bit(1.0, 0, "float32"))
        assert flipped != 1.0
        assert abs(flipped - 1.0) < 1e-6

    def test_double_flip_restores_original(self):
        values = np.array([0.1, -7.25, 1e10], dtype=np.float32)
        for position in [0, 10, 23, 30, 31]:
            restored = flip_bit(flip_bit(values, position), position)
            np.testing.assert_array_equal(values, restored)

    def test_flip_does_not_modify_input(self):
        values = np.array([1.0, 2.0], dtype=np.float32)
        flip_bit(values, 30)
        np.testing.assert_array_equal(values, [1.0, 2.0])

    def test_invalid_bit_position_raises(self):
        with pytest.raises(ValueError):
            flip_bit(1.0, 32, "float32")
        with pytest.raises(ValueError):
            flip_bit(1.0, -1, "float32")

    def test_float16_flip(self):
        flipped = float(flip_bit(np.float16(1.0), 14, "float16"))
        assert flipped > 100  # exponent MSB flip


class TestFlipBitScalar:
    def test_record_fields(self):
        record = flip_bit_scalar(1.0, 31, "float32")
        assert isinstance(record, BitFlipRecord)
        assert record.original_value == 1.0
        assert record.corrupted_value == -1.0
        assert record.bit_position == 31
        assert record.flip_direction == "0->1"

    def test_direction_one_to_zero(self):
        record = flip_bit_scalar(-1.0, 31, "float32")
        assert record.flip_direction == "1->0"
        assert record.corrupted_value == 1.0

    def test_as_dict(self):
        record = flip_bit_scalar(2.0, 10, "float32")
        data = record.as_dict()
        assert set(data) == {"bit_position", "original_value", "corrupted_value", "flip_direction"}

    def test_nan_outcome_possible(self):
        # Setting all exponent bits of a value with some mantissa yields NaN.
        value = 1.5
        for position in range(23, 31):
            value = float(set_bit(value, position, 1))
        assert math.isnan(value)


# (dtype, width, exponent bits) of the formats flip_bit_scalar packs directly,
# and one that takes the numpy path.
FLIP_FORMATS = [("float16", 16, 5), ("float32", 32, 8), ("float64", 64, 11), ("int16", 16, 0)]


def _special_patterns(width: int, exponent_bits: int) -> list[int]:
    """±0, the smallest and largest subnormals, ±Inf and NaNs with payloads."""
    sign = 1 << (width - 1)
    mantissa = width - 1 - exponent_bits
    if not exponent_bits:
        return [0, 1, sign, sign - 1, (1 << width) - 1]
    inf = ((1 << exponent_bits) - 1) << mantissa
    quiet = 1 << (mantissa - 1)
    patterns = [0, sign, 1, (1 << mantissa) - 1, sign | 1, inf, sign | inf]
    patterns += [inf | 1, inf | quiet, inf | quiet | 5, sign | inf | quiet | 3, inf | (quiet - 1)]
    return patterns


@st.composite
def _flip_inputs(draw):
    dtype, width, exponent_bits = draw(st.sampled_from(FLIP_FORMATS))
    pattern = draw(
        st.one_of(
            st.sampled_from(_special_patterns(width, exponent_bits)),
            st.integers(0, (1 << width) - 1),
        )
    )
    bits = np.array(pattern, dtype=np.dtype(f"uint{width}"))
    view = np.dtype(dtype) if exponent_bits else np.dtype(f"int{width}")
    return dtype, width, float(bits.view(view))


class TestFlipBitScalarAgreesWithTheArrayPath:
    """The ``struct`` fast path of :func:`flip_bit_scalar` against
    :func:`flip_bit` + :func:`get_bit`, NaN payloads and signed zeros bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_flip_inputs())
    def test_every_bit_of_generated_patterns(self, inputs):
        dtype, width, value = inputs
        for position in range(width):
            record = flip_bit_scalar(value, position, dtype)
            original_bit = int(get_bit(value, position, dtype))
            corrupted = float(np.asarray(flip_bit(value, position, dtype)).reshape(()))
            expected = BitFlipRecord(
                bit_position=position,
                original_value=float(value),
                corrupted_value=corrupted,
                flip_direction="0->1" if original_bit == 0 else "1->0",
            )
            assert (record.bit_position, record.flip_direction) == (
                expected.bit_position,
                expected.flip_direction,
            )
            for field in ("original_value", "corrupted_value"):
                assert struct.pack("<d", getattr(record, field)) == struct.pack(
                    "<d", getattr(expected, field)
                ), (dtype, value, position, field)

    def test_a_value_that_rounds_to_inf_takes_the_numpy_path(self):
        with np.errstate(over="ignore"):
            record = flip_bit_scalar(1e300, 31, "float32")
        assert record.original_value == 1e300 and record.corrupted_value == -math.inf


class TestFormatting:
    def test_bit_width(self):
        assert bit_width("float32") == 32
        assert bit_width("float16") == 16
        assert bit_width("int8") == 8

    def test_format_bits_structure(self):
        formatted = format_bits(1.0, "float32")
        sign, exponent, mantissa = formatted.split("|")
        assert sign == "0"
        assert len(exponent) == 8
        assert len(mantissa) == 23
        assert exponent == "01111111"

    def test_format_bits_int(self):
        formatted = format_bits(3, "int8")
        assert "|" not in formatted
        assert len(formatted) == 8
