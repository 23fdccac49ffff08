"""The codec every section of the experiment document shares.

A section is a dataclass whose fields are declared once with
:func:`spec_field` — kind, default, range or choices, and whether the field
determines results.  :class:`Section` derives parsing, unknown-key
rejection, null-means-default, type and range errors, the plain-dict form
and ``copy()`` from those declarations.  The scenario
(:class:`~repro.alficore.scenario.ScenarioConfig`) and the sections of
:class:`~repro.experiments.spec.ExperimentSpec` are all such sections, so one
rule holds for every key of the document:

* a null or empty value means the field's default;
* a mistake raises :class:`SpecError` (a ``ValueError``) naming the field's
  dotted path, e.g. ``scenario.num_runs must be an integer, got '2'``;
* an integer is any ``numbers.Integral`` or an integral float, never a bool;
* a number keeps an integral value as written (``rnd_value_min: -2`` stays
  the integer ``-2``, also in the store's run IDs).
"""

from __future__ import annotations

import copy
import dataclasses
import numbers
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Sequence, TypeVar

import numpy as np


class SpecError(ValueError):
    """Raised for malformed experiment specifications."""


def coerce_schema_version(value: Any, supported: int, label: str) -> int:
    """Normalize a document's ``schema_version`` value.

    Missing/``None`` means "current"; non-integers and versions newer than
    ``supported`` raise :class:`SpecError`.
    """
    if value is None:
        return supported
    if isinstance(value, bool):
        raise SpecError(f"{label} schema_version must be an integer, got {value!r}")
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise SpecError(f"{label} schema_version must be an integer, got {value!r}") from None
    if value > supported:
        raise SpecError(
            f"{label} schema version {value} is newer than the supported "
            f"version {supported}; upgrade the package to load it"
        )
    return value


def _to_plain(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and Paths into plain Python."""
    if isinstance(value, dict):
        return {key: _to_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    return value


# --------------------------------------------------------------------------- #
# field declarations
# --------------------------------------------------------------------------- #
def spec_field(
    kind: str | type[Section],
    default: Any = None,
    *,
    required: bool = False,
    minimum: float | None = None,
    positive: bool = False,
    length: int | None = None,
    choices: Callable[[], Sequence[Any]] | None = None,
    canonical: bool = False,
) -> Any:
    """Declare one field of a document section (a ``dataclasses.field``).

    ``kind`` is ``"str"``, ``"int"``, ``"float"``, ``"bool"``, ``"path"``,
    ``"ints"`` (a tuple of integers), ``"names"`` (a tuple of strings),
    ``"mapping"``, ``"list"``, or a nested section class, whose ``default``
    is then a document.  A ``None`` default makes the field nullable;
    ``required`` fields have none.  ``length`` fixes the size of a tuple
    kind.  ``minimum`` (inclusive), ``positive`` and ``choices`` are the
    range, checked on each element of a tuple kind; ``canonical`` marks a
    top-level field that determines the campaign's results (the store's run
    ID and the legal sweep-axis roots).
    """
    metadata = dict(
        kind=kind, required=required, minimum=minimum, positive=positive,
        length=length, choices=choices, canonical=canonical,
    )
    if required:
        return dataclasses.field(metadata=metadata)
    if isinstance(kind, type) and default is not None:
        return dataclasses.field(default_factory=lambda: kind.from_dict(default), metadata=metadata)
    if kind in _CONTAINERS:
        return dataclasses.field(default_factory=_CONTAINERS[kind], metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def field_kind(field: dataclasses.Field[Any]) -> str | type[Section]:
    """A field's declared kind (the first argument of :func:`spec_field`)."""
    return field.metadata["kind"]


# --------------------------------------------------------------------------- #
# the parsers derived from the declarations
# --------------------------------------------------------------------------- #
def _int_field(value: object, where: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SpecError(f"{where} must be an integer, got {value!r}")


def _float_field(value: object, where: str) -> numbers.Real:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{where} must be a number, got {value!r}")
    return value


def _bool_field(value: object, where: str) -> bool:
    # Not bool(value): a quoted "false" from a JSON spec or a templated YAML
    # would load as True.
    if not isinstance(value, bool):
        raise SpecError(f"{where} must be true or false, got {value!r}")
    return value


_CONTAINERS: dict[str, type] = {"mapping": dict, "list": list}
_SCALARS: dict[str, Callable[[Any, str], Any]] = {
    "str": lambda value, where: str(value),
    "int": _int_field,
    "float": _float_field,
    "bool": _bool_field,
    "path": lambda value, where: Path(value),
}
#: tuple kinds: their element kind and how an error names the elements
_TUPLES = {"ints": ("int", "integers"), "names": ("str", "names")}


def _parse_section(kind: type[Section], value: Any, where: str) -> Section:
    if isinstance(value, kind):  # built in code, not parsed
        value.validate(where)
        return value
    return kind.from_dict(value, where)


def _parse_scalar(kind: str, meta: Any, value: Any, where: str) -> Any:
    value = _SCALARS[kind](value, where)
    if meta["minimum"] is not None and value < meta["minimum"]:
        raise SpecError(f"{where} must be >= {meta['minimum']}, got {value}")
    if meta["positive"] and value <= 0:
        raise SpecError(f"{where} must be positive, got {value}")
    if meta["choices"] is not None and value not in meta["choices"]():
        raise SpecError(f"{where} must be one of {meta['choices']()}, got {value!r}")
    return value


def _parse_field(field: dataclasses.Field[Any], value: Any, where: str) -> Any:
    """Type-check ``value`` against ``field``, coerce it, and check its range."""
    meta = field.metadata
    kind = meta["kind"]
    if isinstance(kind, type):
        return _parse_section(kind, value, where)
    if kind in _CONTAINERS:
        if not isinstance(value, _CONTAINERS[kind]):
            raise SpecError(f"{where} must be a {kind}, got {type(value).__name__}")
        return value
    if kind in _TUPLES:
        element, noun = _TUPLES[kind]
        length = meta["length"]
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            shape = "a list of" if length is None else f"a list of {length}"
            raise SpecError(f"{where} must be {shape} {noun}, got {value!r}")
        return tuple(
            _parse_scalar(element, meta, item, f"{where}[{i}]") for i, item in enumerate(value)
        )
    return _parse_scalar(kind, meta, value, where)


# --------------------------------------------------------------------------- #
# the section base class
# --------------------------------------------------------------------------- #
_S = TypeVar("_S", bound="Section")


class Section:
    """The codec every document section shares.

    A section is a dataclass whose fields are declared with
    :func:`spec_field`; parsing, validation, the plain-dict form and
    ``copy()`` are derived from those declarations.  Subclasses add only
    what a table cannot say: ``_check_rules`` holds the cross-field rules.
    """

    #: how error messages name the section ("backend.workers must be ...")
    LABEL: ClassVar[str]
    #: the field a bare string stands for (``backend: sharded``), if any
    SHORTHAND: ClassVar[str | None] = None
    #: version written as ``schema_version`` into the section's document
    SCHEMA_VERSION: ClassVar[int | None] = None
    #: the document root: error messages name its fields without a prefix
    ROOT: ClassVar[bool] = False

    @classmethod
    def from_dict(cls: type[_S], data: Any, where: str | None = None) -> _S:
        """Parse a document: unknown keys, bad types and bad ranges are errors."""
        where = where or cls.LABEL
        if cls.SHORTHAND is not None and isinstance(data, str):
            data = {cls.SHORTHAND: data}
        if not isinstance(data, dict):
            expected = "a name or a mapping" if cls.SHORTHAND else "a mapping"
            raise SpecError(f"{where} must be {expected}, got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        if cls.SCHEMA_VERSION is not None:
            known.add("schema_version")
            coerce_schema_version(data.get("schema_version"), cls.SCHEMA_VERSION, where)
        cls._reject_unknown(data, known, where)
        # Copies: the spec shares nothing with the document it is parsed from.
        section = cls(
            **{f.name: copy.deepcopy(data.get(f.name)) for f in dataclasses.fields(cls)}
        )
        section.validate(where)
        return section

    def validate(self, where: str | None = None) -> None:
        """Raise :class:`SpecError` on invalid field values or combinations.

        An explicit null or empty string (an unset template variable) means
        the field's default, and values are coerced to their declared kind
        on the way (an integral float to ``int``, a list to a tuple, a
        string to ``Path``, a nested document to its section), so a section
        built in code validates like a parsed one.
        """
        where = where or self.LABEL
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None or (isinstance(value, str) and not value):
                if field.metadata["required"]:
                    raise SpecError(f"{where} requires a {field.name!r}")
                missing = field.default is dataclasses.MISSING
                value = field.default_factory() if missing else field.default
            if value is not None:
                path = field.name if self.ROOT else f"{where}.{field.name}"
                value = _parse_field(field, value, path)
            setattr(self, field.name, value)
        self._check_rules()

    def _check_rules(self) -> None:
        """Cross-field rules of the section (none by default)."""

    @classmethod
    def _reject_unknown(cls, keys: Iterable[str], known: set[str], where: str) -> None:
        unknown = sorted(set(keys) - known)
        if unknown:
            paths = ", ".join(key if cls.ROOT else f"{where}.{key}" for key in unknown)
            raise SpecError(f"{paths}: unknown key; known {where} keys: {sorted(known)}")

    def as_dict(self) -> dict[str, Any]:
        """Plain-python document (the YAML/JSON body; inverse of ``from_dict``)."""
        document: dict[str, Any] = {}
        if self.SCHEMA_VERSION is not None:
            document["schema_version"] = self.SCHEMA_VERSION
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            plain = value.as_dict() if isinstance(value, Section) else _to_plain(value)
            document[field.name] = plain
        return document

    def copy(self: _S, **overrides: Any) -> _S:
        """A deep copy with selected fields replaced (and re-validated)."""
        self._reject_unknown(overrides, {f.name for f in dataclasses.fields(self)}, self.LABEL)
        clone = copy.deepcopy(self)
        for key, value in overrides.items():
            setattr(clone, key, value)
        clone.validate()
        return clone
