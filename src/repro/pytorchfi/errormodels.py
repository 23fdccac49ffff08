"""Value-level error models.

The paper supports two kinds of modifications to neurons/weights: drawing a
random value from a specified min-max range, or flipping a bit chosen from a
configured bit range.  Stuck-at faults (permanently forcing a bit to 0 or 1)
are additionally provided because the scenario schema distinguishes transient
from permanent faults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.bitops import BitFlipRecord, flip_bit_scalar, get_bit, set_bit


class ErrorModel:
    """Base class: maps an original scalar value to a corrupted scalar value."""

    name = "base"
    #: Whether corrupting a fault of a fault matrix draws from the rng.  The
    #: built-in models replay the value the matrix drew (see
    #: :meth:`repro.pytorchfi.core.FaultInjection._corrupt_value`) and are
    #: handed no rng; a custom model may draw.
    draws = True

    def corrupt(self, value: float, rng: np.random.Generator) -> tuple[float, dict]:
        """Return ``(corrupted_value, info_dict)`` for one original value."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Return a serialisable description of the error model."""
        return {"name": self.name}


@dataclass
class BitFlipErrorModel(ErrorModel):
    """Flip a single bit at a position drawn from ``bit_range`` (inclusive).

    A fixed ``bit_position`` can be passed instead, which is how the fault
    matrix replays a pre-generated fault at the exact same bit.
    """

    bit_range: tuple[int, int] = (0, 31)
    dtype: str = "float32"
    bit_position: int | None = None

    name = "bitflip"
    draws = False

    def __post_init__(self):
        low, high = self.bit_range
        if low > high:
            raise ValueError(f"invalid bit range {self.bit_range}")
        if low < 0:
            raise ValueError("bit range must be non-negative")

    def sample_bit(self, rng: np.random.Generator) -> int:
        """Draw the bit position to flip (or return the fixed one)."""
        if self.bit_position is not None:
            return int(self.bit_position)
        low, high = self.bit_range
        return int(rng.integers(low, high + 1))

    def corrupt(self, value: float, rng: np.random.Generator) -> tuple[float, dict]:
        position = self.sample_bit(rng)
        record: BitFlipRecord = flip_bit_scalar(float(value), position, self.dtype)
        return record.corrupted_value, record.as_dict()

    def describe(self) -> dict:
        return {
            "name": self.name,
            "bit_range": list(self.bit_range),
            "dtype": self.dtype,
            "bit_position": self.bit_position,
        }


@dataclass
class StuckAtErrorModel(ErrorModel):
    """Force a bit to a fixed value (stuck-at-0 / stuck-at-1), a permanent fault."""

    bit_position: int = 30
    stuck_value: int = 1
    dtype: str = "float32"

    name = "stuck_at"
    draws = False

    def __post_init__(self):
        if self.stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {self.stuck_value}")

    def corrupt(self, value: float, rng: np.random.Generator) -> tuple[float, dict]:
        original_bit = int(get_bit(float(value), self.bit_position, self.dtype))
        corrupted = float(np.asarray(set_bit(float(value), self.bit_position, self.stuck_value, self.dtype)).reshape(()))
        info = {
            "bit_position": self.bit_position,
            "original_value": float(value),
            "corrupted_value": corrupted,
            "flip_direction": f"{original_bit}->{self.stuck_value}",
        }
        return corrupted, info

    def describe(self) -> dict:
        return {
            "name": self.name,
            "bit_position": self.bit_position,
            "stuck_value": self.stuck_value,
            "dtype": self.dtype,
        }


@dataclass
class RandomValueErrorModel(ErrorModel):
    """Replace the value with a random draw from ``[min_value, max_value]``."""

    min_value: float = -1.0
    max_value: float = 1.0

    name = "random_value"

    def __post_init__(self):
        if self.min_value > self.max_value:
            raise ValueError(
                f"min_value ({self.min_value}) must not exceed max_value ({self.max_value})"
            )

    @property
    def draws(self) -> bool:
        # Replayed under its own name only: a subclass named otherwise runs
        # its own ``corrupt``, which draws.
        return self.name != "random_value"

    def corrupt(self, value: float, rng: np.random.Generator) -> tuple[float, dict]:
        corrupted = float(rng.uniform(self.min_value, self.max_value))
        info = {
            "original_value": float(value),
            "corrupted_value": corrupted,
            "bit_position": None,
            "flip_direction": None,
        }
        return corrupted, info

    def describe(self) -> dict:
        return {"name": self.name, "min_value": self.min_value, "max_value": self.max_value}


def build_error_model(config: dict) -> ErrorModel:
    """Construct an error model from a scenario-style configuration dict.

    Args:
        config: dictionary with a ``"name"`` key (``"bitflip"``, ``"stuck_at"``
            or ``"random_value"``) and the model-specific fields produced by
            :meth:`ErrorModel.describe`.

    Raises:
        KeyError: for unknown error model names.
    """
    name = config.get("name", "bitflip")
    if name == "bitflip":
        bit_range = tuple(config.get("bit_range", (0, 31)))
        return BitFlipErrorModel(
            bit_range=(int(bit_range[0]), int(bit_range[1])),
            dtype=config.get("dtype", "float32"),
            bit_position=config.get("bit_position"),
        )
    if name == "stuck_at":
        return StuckAtErrorModel(
            bit_position=int(config.get("bit_position", 30)),
            stuck_value=int(config.get("stuck_value", 1)),
            dtype=config.get("dtype", "float32"),
        )
    if name == "random_value":
        return RandomValueErrorModel(
            min_value=float(config.get("min_value", -1.0)),
            max_value=float(config.get("max_value", 1.0)),
        )
    raise KeyError(f"unknown error model {name!r}")
