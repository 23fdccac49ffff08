"""IEEE-754 bit-flip primitives.

These functions implement the core fault model of the paper: a hardware
transient fault is simulated by flipping a single bit of the binary
representation of a weight or an activation.  All operations are performed on
numpy integer views of the floating point storage, so the resulting values
are bit-exact with what a flipped hardware register would contain (including
NaN / Inf outcomes for exponent-field flips).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.tensor.dtypes import DTypeInfo, dtype_info


@dataclass(frozen=True)
class BitFlipRecord:
    """Bookkeeping record of a single applied bit flip.

    PyTorchALFI stores, for every injected fault, the original value, the
    corrupted value, the flipped bit position and the flip direction
    (``0->1`` or ``1->0``).  This record is what ends up in the second binary
    output file of a fault injection run.
    """

    bit_position: int
    original_value: float
    corrupted_value: float
    flip_direction: str

    def as_dict(self) -> dict:
        """Return a JSON/CSV-friendly dictionary of the record."""
        return {
            "bit_position": self.bit_position,
            "original_value": self.original_value,
            "corrupted_value": self.corrupted_value,
            "flip_direction": self.flip_direction,
        }


def bit_width(dtype: str | np.dtype | type) -> int:
    """Return the number of bits of ``dtype`` (e.g. 32 for float32)."""
    return dtype_info(dtype).bits


def float_to_bits(values: np.ndarray | float, dtype: str = "float32") -> np.ndarray:
    """Return the raw bit pattern of ``values`` as unsigned integers.

    Args:
        values: scalar or array of numeric values.
        dtype: the storage dtype whose binary representation is requested.

    Returns:
        An unsigned-integer array of the same shape holding the bit patterns.
    """
    info = dtype_info(dtype)
    arr = np.asarray(values, dtype=info.np_dtype)
    return arr.view(info.int_view)


def bits_to_float(bits: np.ndarray | int, dtype: str = "float32") -> np.ndarray:
    """Inverse of :func:`float_to_bits`: reinterpret bit patterns as values."""
    info = dtype_info(dtype)
    arr = np.asarray(bits, dtype=info.int_view)
    return arr.view(info.np_dtype)


def get_bit(values: np.ndarray | float, bit_position: int, dtype: str = "float32") -> np.ndarray:
    """Return the bit at ``bit_position`` (0 = LSB) of each value as 0/1."""
    info = _check_position(bit_position, dtype)
    bits = float_to_bits(values, dtype)
    mask = info.int_view.type(1) << info.int_view.type(bit_position)
    return ((bits & mask) != 0).astype(np.uint8)


def set_bit(
    values: np.ndarray | float,
    bit_position: int,
    bit_value: int,
    dtype: str = "float32",
) -> np.ndarray:
    """Return a copy of ``values`` with ``bit_position`` forced to ``bit_value``.

    This implements the *stuck-at* fault model (stuck-at-0 / stuck-at-1).
    """
    if bit_value not in (0, 1):
        raise ValueError(f"bit_value must be 0 or 1, got {bit_value}")
    info = _check_position(bit_position, dtype)
    bits = float_to_bits(values, dtype).copy()
    mask = info.int_view.type(1) << info.int_view.type(bit_position)
    if bit_value == 1:
        bits |= mask
    else:
        bits &= ~mask
    return bits_to_float(bits, dtype)


def flip_bit(
    values: np.ndarray | float,
    bit_position: int,
    dtype: str = "float32",
) -> np.ndarray:
    """Return a copy of ``values`` with ``bit_position`` flipped in every element.

    This implements the *transient single bit flip* fault model.
    """
    info = _check_position(bit_position, dtype)
    bits = float_to_bits(values, dtype).copy()
    mask = info.int_view.type(1) << info.int_view.type(bit_position)
    bits ^= mask
    return bits_to_float(bits, dtype)


def flip_bit_scalar(
    value: float,
    bit_position: int,
    dtype: str = "float32",
) -> BitFlipRecord:
    """Flip one bit of a single value and return the full bookkeeping record.

    Args:
        value: the original value.
        bit_position: 0-based bit index counted from the LSB.
        dtype: storage dtype of the value.

    Returns:
        A :class:`BitFlipRecord` with original value, corrupted value and the
        flip direction (``"0->1"`` or ``"1->0"``).
    """
    packing = _PACKING.get(_check_position(bit_position, dtype).name)
    flipped = None if packing is None else _flip_packed(value, bit_position, *packing)
    if flipped is None:
        original_bit = int(get_bit(value, bit_position, dtype))
        corrupted_value = float(np.asarray(flip_bit(value, bit_position, dtype)).reshape(()))
    else:
        original_bit, corrupted_value = flipped
    direction = "0->1" if original_bit == 0 else "1->0"
    return BitFlipRecord(
        bit_position=bit_position,
        original_value=float(value),
        corrupted_value=corrupted_value,
        flip_direction=direction,
    )


# ``struct`` formats of a float dtype and of the unsigned integer as wide, and
# whether ``struct`` converts its NaNs as numpy does (it drops a float16 NaN's
# sign and payload).
_PACKING = {
    "float16": ("<e", "<H", False),
    "float32": ("<f", "<I", True),
    "float64": ("<d", "<Q", True),
}


def _flip_packed(
    value: float, bit_position: int, value_format: str, bits_format: str, keeps_nan: bool
) -> tuple[int, float] | None:
    """``(original bit, corrupted value)`` of one flip by ``struct``.

    Two packs and unpacks instead of :func:`flip_bit_scalar`'s three numpy
    round trips.  ``None`` where only numpy's conversion gives the exact
    bits: a value the format rounds to an Inf (``struct`` refuses it), or a
    NaN in or out of a format whose NaNs ``struct`` does not keep.
    """
    try:
        bits = struct.unpack(bits_format, struct.pack(value_format, value))[0]
    except OverflowError:
        return None
    corrupted = struct.unpack(value_format, struct.pack(bits_format, bits ^ 1 << bit_position))[0]
    if not keeps_nan and (value != value or corrupted != corrupted):
        return None
    return bits >> bit_position & 1, corrupted


def format_bits(value: float, dtype: str = "float32") -> str:
    """Return the bit pattern of ``value`` as a human-readable binary string.

    The string is grouped as ``sign|exponent|mantissa`` for floating point
    types, which makes log files and debug output easy to interpret.
    """
    info = dtype_info(dtype)
    bits = int(float_to_bits(value, dtype).reshape(()))
    raw = format(bits, f"0{info.bits}b")
    if not info.is_float:
        return raw
    sign = raw[0]
    exponent = raw[1 : 1 + info.exponent_bits]
    mantissa = raw[1 + info.exponent_bits :]
    return f"{sign}|{exponent}|{mantissa}"


def _check_position(bit_position: int, dtype: str | np.dtype | type) -> DTypeInfo:
    """Validate a bit position against the dtype width and return its info."""
    info = dtype_info(dtype)
    if not 0 <= bit_position < info.bits:
        raise ValueError(
            f"bit position {bit_position} out of range for {info.name} "
            f"(valid: 0..{info.bits - 1})"
        )
    return info
