"""Scenario configuration (the ``default.yml`` of the paper).

All parameters of a fault injection campaign are defined in a single
configuration object that can be loaded from / stored to a yml file, is
validated on construction, and is accessible (and modifiable) at run time for
iterative experiments via ``ptfiwrap.get_scenario()`` /
``ptfiwrap.set_scenario()``.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from pathlib import Path

import yaml

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
SUPPORTED_QUANTIZATION = ("float32", "float16", "float64", "int8", "int16", "int32")

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


def coerce_schema_version(value, supported: int, label: str) -> int:
    """Normalize a document's ``schema_version`` value.

    Missing/``None`` means "current"; non-integers and versions newer than
    ``supported`` raise ``ValueError``.  Shared by the scenario and the
    experiment-spec loaders so the version policy has one implementation.
    """
    if value is None:
        return supported
    if isinstance(value, bool):
        raise ValueError(f"{label} schema_version must be an integer, got {value!r}")
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} schema_version must be an integer, got {value!r}") from None
    if value > supported:
        raise ValueError(
            f"{label} schema version {value} is newer than the supported "
            f"version {supported}; upgrade the package to load it"
        )
    return value


def _one_of(default: str, choices) -> str:
    """A categorical field: ``choices()`` are its legal values (read by
    :meth:`ScenarioConfig.validate` and by the CLI's flag declarations)."""
    return dataclasses.field(default=default, metadata={"choices": choices})


def _typed(default, kind: str):
    """A field of ``kind`` — ``"int"``, ``"float"`` (any real number) or
    ``"ints"`` (an integer pair) — checked and coerced by
    :meth:`ScenarioConfig.validate`; the experiment spec's field kinds."""
    return dataclasses.field(default=default, metadata={"kind": kind})


def _integer(value, name: str) -> int:
    # Like the experiment spec's integer fields: an integral float is
    # coerced, a bool or a string is refused.
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _checked(value, kind: str, name: str):
    """``value`` of field ``name`` coerced to ``kind``; ``ValueError`` if it is not one."""
    if kind == "int":
        return _integer(value, name)
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        return value
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} must be a pair of integers, got {value!r}")
    return tuple(_integer(item, f"{name}[{i}]") for i, item in enumerate(value))


@dataclass
class ScenarioConfig:
    """Complete description of a fault injection campaign.

    The field names follow the paper's ``default.yml``: the total number of
    pre-generated faults is ``dataset_size * num_runs * max_faults_per_image``
    (Section V-C), faults target either neurons or weights, values are
    corrupted by bit flips within ``rnd_bit_range`` or replaced by random
    numbers in ``[rnd_value_min, rnd_value_max]``, and the fault locations can
    be restricted to layer types, explicit layer ranges and optionally
    weighted by relative layer size (Eq. 1).
    """

    # ---------------------------------------------------------------- #
    # campaign extent
    # ---------------------------------------------------------------- #
    dataset_size: int = _typed(10, "int")
    num_runs: int = _typed(1, "int")
    max_faults_per_image: int = _typed(1, "int")
    batch_size: int = _typed(1, "int")

    # ---------------------------------------------------------------- #
    # fault target and model
    # ---------------------------------------------------------------- #
    injection_target: str = _one_of("neurons", lambda: INJECTION_TARGETS)
    inj_policy: str = _one_of("per_image", lambda: INJECTION_POLICIES)
    fault_persistence: str = _one_of("transient", lambda: FAULT_PERSISTENCE)

    # ---------------------------------------------------------------- #
    # value corruption
    # ---------------------------------------------------------------- #
    rnd_value_type: str = _one_of("bitflip", known_value_types)  # built-in + plug-ins
    rnd_bit_range: tuple[int, int] = _typed((0, 31), "ints")
    rnd_value_min: float = _typed(-1.0, "float")
    rnd_value_max: float = _typed(1.0, "float")
    quantization: str = _one_of("float32", lambda: SUPPORTED_QUANTIZATION)
    stuck_at_value: int = _typed(1, "int")

    # ---------------------------------------------------------------- #
    # location selection
    # ---------------------------------------------------------------- #
    layer_types: tuple[str, ...] = ("conv2d", "conv3d", "fcc")
    # inclusive (start, end); None = all layers
    layer_range: tuple[int, int] | None = _typed(None, "ints")
    weighted_layer_selection: bool = True

    # ---------------------------------------------------------------- #
    # bookkeeping
    # ---------------------------------------------------------------- #
    model_name: str = "model"
    dataset_name: str = "dataset"
    random_seed: int = _typed(1234, "int")
    # Path of a pre-generated fault matrix to reuse; normalized to
    # ``Path | None`` by ``validate`` (strings are accepted on input).
    fault_file: str | Path | None = None

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check all fields for consistency; raise ``ValueError`` on problems.

        Declared kinds are checked first, and coerced on the way (an
        integral float to ``int``, a pair to a tuple), so every error below
        names its field instead of surfacing as a ``TypeError``.
        """
        for declared in dataclasses.fields(self):
            name, value = declared.name, getattr(self, declared.name)
            kind = declared.metadata.get("kind")
            if kind is not None and not (value is None and declared.default is None):
                value = _checked(value, kind, name)
                setattr(self, name, value)
            choices = declared.metadata.get("choices")
            if choices is not None and value not in choices():
                raise ValueError(f"{name} must be one of {choices()}, got {value!r}")
        if self.dataset_size <= 0:
            raise ValueError(f"dataset_size must be positive, got {self.dataset_size}")
        if self.num_runs <= 0:
            raise ValueError(f"num_runs must be positive, got {self.num_runs}")
        if self.max_faults_per_image <= 0:
            raise ValueError(
                f"max_faults_per_image must be positive, got {self.max_faults_per_image}"
            )
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        self.fault_file = Path(self.fault_file) if self.fault_file else None
        low, high = self.rnd_bit_range
        max_bit = {"float32": 31, "float64": 63, "float16": 15, "int8": 7, "int16": 15, "int32": 31}[
            self.quantization
        ]
        if not (0 <= low <= high <= max_bit):
            raise ValueError(
                f"rnd_bit_range {self.rnd_bit_range} invalid for {self.quantization} "
                f"(bits 0..{max_bit})"
            )
        if self.rnd_value_min > self.rnd_value_max:
            raise ValueError(
                f"rnd_value_min ({self.rnd_value_min}) must not exceed rnd_value_max "
                f"({self.rnd_value_max})"
            )
        if self.stuck_at_value not in (0, 1):
            raise ValueError(f"stuck_at_value must be 0 or 1, got {self.stuck_at_value}")
        self.layer_types = tuple(self.layer_types)
        for layer_type in self.layer_types:
            if layer_type not in LAYER_TYPES:
                raise ValueError(
                    f"layer type {layer_type!r} not supported; choose from {LAYER_TYPES}"
                )
        if not self.layer_types:
            raise ValueError("layer_types must contain at least one entry")
        if not isinstance(self.weighted_layer_selection, bool):
            # Not bool(value): a quoted "false" would select by layer size.
            raise ValueError(
                "weighted_layer_selection must be true or false, "
                f"got {self.weighted_layer_selection!r}"
            )
        if self.layer_range is not None and not 0 <= self.layer_range[0] <= self.layer_range[1]:
            raise ValueError(f"invalid layer_range {self.layer_range}")

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

    # ------------------------------------------------------------------ #
    # conversion / persistence
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """Return the configuration as a plain (yml-serialisable) dictionary."""
        raw = dataclasses.asdict(self)
        raw["schema_version"] = SCENARIO_SCHEMA_VERSION
        raw["rnd_bit_range"] = list(self.rnd_bit_range)
        raw["layer_types"] = list(self.layer_types)
        raw["layer_range"] = list(self.layer_range) if self.layer_range is not None else None
        raw["fault_file"] = str(self.fault_file) if self.fault_file is not None else None
        return raw

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build a configuration from a dictionary; unknown keys are an error."""
        data = dict(data)
        coerce_schema_version(data.pop("schema_version", None), SCENARIO_SCHEMA_VERSION, "scenario")
        known = {f.name for f in dataclasses.fields(cls)}
        filtered = {key: value for key, value in data.items() if key in known}
        unknown = set(data) - known
        if unknown:
            raise KeyError(
                f"unknown scenario keys: {sorted(unknown)}; known keys: {sorted(known)}"
            )
        if "rnd_bit_range" in filtered and filtered["rnd_bit_range"] is not None:
            filtered["rnd_bit_range"] = tuple(filtered["rnd_bit_range"])
        if "layer_types" in filtered and filtered["layer_types"] is not None:
            filtered["layer_types"] = tuple(filtered["layer_types"])
        if "layer_range" in filtered and filtered["layer_range"] is not None:
            filtered["layer_range"] = tuple(filtered["layer_range"])
        return cls(**filtered)

    def copy(self, **overrides) -> "ScenarioConfig":
        """Return a copy with selected fields replaced (and re-validated)."""
        data = self.as_dict()
        data.update(overrides)
        return ScenarioConfig.from_dict(data)


def default_scenario(**overrides) -> ScenarioConfig:
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
