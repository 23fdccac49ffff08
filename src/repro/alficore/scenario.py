"""Scenario configuration (the ``default.yml`` of the paper).

All parameters of a fault injection campaign are defined in a single
configuration object that can be loaded from / stored to a yml file, is
validated on construction, and is accessible (and modifiable) at run time for
iterative experiments via ``ptfiwrap.get_scenario()`` /
``ptfiwrap.set_scenario()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from repro.alficore.codec import Section, SpecError, spec_field

# Version of the serialized scenario schema.  Bump when a field is added,
# removed or changes meaning; ``from_dict`` refuses documents written by a
# *newer* schema (older documents without the key load as version 1).
SCENARIO_SCHEMA_VERSION = 1

# Allowed values for the categorical scenario fields.
INJECTION_TARGETS = ("neurons", "weights")
VALUE_TYPES = ("bitflip", "number", "stuck_at")
INJECTION_POLICIES = ("per_image", "per_batch", "per_epoch")
FAULT_PERSISTENCE = ("transient", "permanent")
LAYER_TYPES = ("conv2d", "conv3d", "fcc")
# The highest bit index of each supported quantization.
_MAX_BIT = {"float32": 31, "float16": 15, "float64": 63, "int8": 7, "int16": 15, "int32": 31}
SUPPORTED_QUANTIZATION = tuple(_MAX_BIT)

# Value types contributed by plug-ins (``repro.experiments.register_error_model``)
# on top of the built-in VALUE_TYPES.
_EXTRA_VALUE_TYPES: set[str] = set()


def register_value_type(name: str) -> None:
    """Allow ``rnd_value_type=name`` in scenarios (plug-in error models)."""
    name = str(name)
    if name not in VALUE_TYPES:
        _EXTRA_VALUE_TYPES.add(name)


def unregister_value_type(name: str) -> None:
    """Inverse of :func:`register_value_type` (built-ins are untouched)."""
    _EXTRA_VALUE_TYPES.discard(str(name))


def known_value_types() -> tuple[str, ...]:
    """All accepted ``rnd_value_type`` values (built-in + registered)."""
    return VALUE_TYPES + tuple(sorted(_EXTRA_VALUE_TYPES))


@dataclass
class ScenarioConfig(Section):
    """Complete description of a fault injection campaign.

    The field names follow the paper's ``default.yml``: the total number of
    pre-generated faults is ``dataset_size * num_runs * max_faults_per_image``
    (Section V-C), faults target either neurons or weights, values are
    corrupted by bit flips within ``rnd_bit_range`` or replaced by random
    numbers in ``[rnd_value_min, rnd_value_max]``, and the fault locations can
    be restricted to layer types, explicit layer ranges and optionally
    weighted by relative layer size (Eq. 1).

    The section's codec (:class:`~repro.alficore.codec.Section`) parses and
    checks every field; a mistake raises
    :class:`~repro.alficore.codec.SpecError` naming ``scenario.<field>``.
    """

    LABEL = "scenario"
    SCHEMA_VERSION = SCENARIO_SCHEMA_VERSION

    # ---------------------------------------------------------------- #
    # campaign extent
    # ---------------------------------------------------------------- #
    dataset_size: int = spec_field("int", 10, positive=True)
    num_runs: int = spec_field("int", 1, positive=True)
    max_faults_per_image: int = spec_field("int", 1, positive=True)
    batch_size: int = spec_field("int", 1, positive=True)

    # ---------------------------------------------------------------- #
    # fault target and model
    # ---------------------------------------------------------------- #
    injection_target: str = spec_field("str", "neurons", choices=lambda: INJECTION_TARGETS)
    inj_policy: str = spec_field("str", "per_image", choices=lambda: INJECTION_POLICIES)
    fault_persistence: str = spec_field("str", "transient", choices=lambda: FAULT_PERSISTENCE)

    # ---------------------------------------------------------------- #
    # value corruption
    # ---------------------------------------------------------------- #
    rnd_value_type: str = spec_field("str", "bitflip", choices=known_value_types)
    rnd_bit_range: tuple[int, int] = spec_field("ints", (0, 31), length=2, minimum=0)
    rnd_value_min: float = spec_field("float", -1.0)
    rnd_value_max: float = spec_field("float", 1.0)
    quantization: str = spec_field("str", "float32", choices=lambda: SUPPORTED_QUANTIZATION)
    stuck_at_value: int = spec_field("int", 1, choices=lambda: (0, 1))

    # ---------------------------------------------------------------- #
    # location selection
    # ---------------------------------------------------------------- #
    layer_types: tuple[str, ...] = spec_field("names", LAYER_TYPES, choices=lambda: LAYER_TYPES)
    # inclusive (start, end); None = all layers
    layer_range: tuple[int, int] | None = spec_field("ints", length=2, minimum=0)
    weighted_layer_selection: bool = spec_field("bool", True)

    # ---------------------------------------------------------------- #
    # bookkeeping
    # ---------------------------------------------------------------- #
    model_name: str = spec_field("str", "model")
    dataset_name: str = spec_field("str", "dataset")
    random_seed: int = spec_field("int", 1234)
    # Path of a pre-generated fault matrix to reuse.
    fault_file: Path | None = spec_field("path")

    def __post_init__(self) -> None:
        self.validate()

    def _check_rules(self) -> None:
        low, high = self.rnd_bit_range
        max_bit = _MAX_BIT[self.quantization]
        if not low <= high <= max_bit:
            raise SpecError(
                f"scenario.rnd_bit_range {self.rnd_bit_range} invalid for "
                f"{self.quantization} (bits 0..{max_bit})"
            )
        if self.rnd_value_min > self.rnd_value_max:
            raise SpecError(
                f"scenario.rnd_value_min ({self.rnd_value_min}) must not exceed "
                f"rnd_value_max ({self.rnd_value_max})"
            )
        if not self.layer_types:
            raise SpecError("scenario.layer_types must contain at least one entry")
        if self.layer_range is not None and self.layer_range[0] > self.layer_range[1]:
            raise SpecError(f"scenario.layer_range {self.layer_range} is not in order")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def total_faults(self) -> int:
        """Number of faults to pre-generate: ``n = a * b * c`` (Section V-C)."""
        return self.dataset_size * self.num_runs * self.max_faults_per_image

    @property
    def number_of_inferences(self) -> int:
        """Number of single-image inferences in the campaign."""
        return self.dataset_size * self.num_runs


def default_scenario(**overrides: Any) -> ScenarioConfig:
    """Return the default scenario, optionally with overridden fields."""
    return ScenarioConfig().copy(**overrides) if overrides else ScenarioConfig()


SCENARIO_FILE_HEADER = (
    "# PyTorchALFI scenario configuration\n"
    "# Total faults = dataset_size * num_runs * max_faults_per_image\n"
)


def save_scenario(config: ScenarioConfig, path: str | Path) -> Path:
    """Write a scenario configuration to a yml file (the meta-file of a run)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(SCENARIO_FILE_HEADER)
        yaml.safe_dump(config.as_dict(), handle, default_flow_style=False, sort_keys=True)
    return path


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a scenario configuration from a yml file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle) or {}
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {path} does not contain a mapping")
    return ScenarioConfig.from_dict(data)
