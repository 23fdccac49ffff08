"""Central component registries of the Experiment API.

Every orthogonal choice of a fault-injection campaign — model, dataset,
error model, protection policy, task, execution backend — is resolved
through one of the :class:`Registry` singletons below.  A new workload is a
*registration*, not a new facade::

    from repro.experiments import register_model

    @register_model("tiny_mlp", kind="classifier")
    def tiny_mlp(num_classes: int = 10, seed: int = 0):
        return mlp(num_classes=num_classes, seed=seed)

Registries behave like read-only mappings of ``name -> factory``: iteration
yields names (so ``sorted(registry)`` can drive CLI ``choices``), lookup of
an unknown name raises :class:`UnknownComponentError` with a did-you-mean
suggestion, and duplicate registration raises
:class:`DuplicateComponentError` unless ``override=True`` is passed.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Iterator


class RegistryError(KeyError):
    """Base class of registry lookup/registration errors."""


class UnknownComponentError(RegistryError):
    """Raised when a name is not registered; carries a did-you-mean hint."""

    def __init__(self, kind: str, name: str, known: list[str]) -> None:
        suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.5)
        message = f"unknown {kind} {name!r}"
        if suggestions:
            message += f"; did you mean {', '.join(repr(s) for s in suggestions)}?"
        message += f" (registered: {', '.join(sorted(known)) or 'none'})"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.suggestions = suggestions

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class DuplicateComponentError(RegistryError):
    """Raised when a name is registered twice without ``override=True``."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(
            f"{kind} {name!r} is already registered; pass override=True to replace it"
        )

    def __str__(self) -> str:
        return self.args[0]


class Registry:
    """A named mapping of component factories with metadata.

    Args:
        kind: human-readable component kind used in error messages
            (``"model"``, ``"dataset"``, ...).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable] = {}
        self._metadata: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        override: bool = False,
        **metadata: Any,
    ) -> Callable:
        """Register ``factory`` under ``name`` (usable as a decorator).

        Args:
            name: registry key.
            factory: the component factory; omit to use as a decorator.
            override: replace an existing registration instead of raising.
            metadata: free-form attributes (e.g. ``kind="classifier"``)
                filterable via :meth:`names`.
        """
        if factory is None:
            def decorator(fn: Callable) -> Callable:
                self.register(name, fn, override=override, **metadata)
                return fn

            return decorator
        if name in self._factories and not override:
            raise DuplicateComponentError(self.kind, name)
        self._factories[name] = factory
        self._metadata[name] = dict(metadata)
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (test helper)."""
        self._factories.pop(name, None)
        self._metadata.pop(name, None)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Callable:
        """Return the factory registered under ``name``.

        Raises:
            UnknownComponentError: with a did-you-mean suggestion.
        """
        try:
            return self._factories[name]
        except KeyError:
            raise UnknownComponentError(self.kind, str(name), list(self._factories)) from None

    def metadata(self, name: str) -> dict[str, Any]:
        """Return (a copy of) the metadata attached to ``name``."""
        self.get(name)
        return dict(self._metadata[name])

    def names(self, **match: Any) -> list[str]:
        """Sorted names, optionally filtered by metadata equality."""
        return sorted(
            name
            for name, meta in self._metadata.items()
            if all(meta.get(key) == value for key, value in match.items())
        )

    # ------------------------------------------------------------------ #
    # mapping protocol
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {sorted(self._factories)})"


# --------------------------------------------------------------------------- #
# the singletons
# --------------------------------------------------------------------------- #
MODELS = Registry("model")
DATASETS = Registry("dataset")
ERROR_MODELS = Registry("error model")
PROTECTIONS = Registry("protection")
TASKS = Registry("task")
BACKENDS = Registry("backend")


def register_model(
    name: str,
    factory: Callable | None = None,
    *,
    kind: str = "classifier",
    override: bool = False,
) -> Callable:
    """Register a model factory (``kind``: ``"classifier"`` or ``"detector"``)."""
    return MODELS.register(name, factory, kind=kind, override=override)


def register_dataset(
    name: str,
    factory: Callable | None = None,
    *,
    task: str | None = None,
    override: bool = False,
) -> Callable:
    """Register a dataset factory, optionally tagged with its task family."""
    return DATASETS.register(name, factory, task=task, override=override)


def register_error_model(
    name: str, factory: Callable | None = None, *, override: bool = False
) -> Callable:
    """Register an error-model factory ``f(scenario) -> ErrorModel``.

    On success the name also becomes a legal ``rnd_value_type`` scenario
    value; a failed (duplicate) registration changes nothing.
    """
    from repro.alficore.scenario import register_value_type

    if factory is None:
        def decorator(fn: Callable) -> Callable:
            register_error_model(name, fn, override=override)
            return fn

        return decorator
    result = ERROR_MODELS.register(name, factory, override=override)
    register_value_type(name)
    return result


def unregister_error_model(name: str) -> None:
    """Remove an error model and its ``rnd_value_type`` whitelist entry."""
    from repro.alficore.scenario import unregister_value_type

    ERROR_MODELS.unregister(name)
    unregister_value_type(name)


def register_protection(
    name: str, factory: Callable | None = None, *, override: bool = False
) -> Callable:
    """Register a protection factory ``f(model, dataset, **params) -> Module``."""
    return PROTECTIONS.register(name, factory, override=override)


def register_task(name: str, plugin: Any = None, *, override: bool = False) -> Any:
    """Register an :class:`~repro.experiments.tasks.ExperimentTask` plug-in.

    Accepts an instance or a class (instantiated on registration), so the
    decorator form ``@register_task("seg")`` over a class works.
    """
    if plugin is None:
        def decorator(obj: Any) -> Any:
            register_task(name, obj, override=override)
            return obj

        return decorator
    if isinstance(plugin, type):
        plugin = plugin()
    return TASKS.register(name, plugin, override=override)


def register_backend(
    name: str, factory: Callable | None = None, *, override: bool = False
) -> Callable:
    """Register an execution backend
    ``f(core, backend_spec, execution_spec) -> (state, paths)``.

    ``core`` is the assembled :class:`~repro.alficore.campaign.CampaignCore`,
    ``backend_spec`` the spec's :class:`~repro.experiments.spec.BackendSpec`
    and ``execution_spec`` its :class:`~repro.experiments.spec.ExecutionSpec`
    with the fault-tolerance knobs (retries, shard_timeout, backoff, resume);
    :func:`repro.experiments.run` always passes all three.
    """
    return BACKENDS.register(name, factory, override=override)
