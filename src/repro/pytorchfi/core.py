"""Fault injection core (PyTorchFI stand-in).

The core knows how to

1. *profile* a model: enumerate the injectable layers (conv2d, conv3d and
   fully connected by default), record their weight shapes and — by running a
   dummy forward pass — their output activation shapes;
2. *inject neuron faults*: attach forward hooks that corrupt selected output
   values in place during inference;
3. *inject weight faults*: patch selected weight elements of the model before
   inference.

Faults are described by explicit coordinates matching Table I of the paper
(batch, layer, channel, depth, height, width, value).  The *value* row is
interpreted by the configured error model, either as a literal replacement
value or as the bit position to flip.

Two execution strategies are offered per injection target:

* the legacy ``declare_*_fault_injection`` methods return a *corrupted clone*
  of the model (the original is never modified) — simple, but a full deep
  copy per fault group;
* the clone-free *sessions* work on the model they are given:
  :class:`WeightPatchSession` patches its weights in place and restores the
  exact original bit patterns on exit, :class:`NeuronInjectionSession` hooks
  its injectable layers once, swaps the active fault group per step and
  removes the hooks on ``close()``.  These are what the large-scale campaign
  engine uses.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import nn
from repro.nn.module import Module, RemovableHandle
from repro.nn.record import output_shapes
from repro.pytorchfi.errormodels import BitFlipErrorModel, ErrorModel, StuckAtErrorModel

# Registry of injectable layer types.  The paper's extensibility section
# describes adding custom trainable layers via the ``verify_layer`` function;
# registering a new entry here achieves the same.
_INJECTABLE_LAYER_TYPES: dict[str, type] = {
    "conv2d": nn.Conv2d,
    "conv3d": nn.Conv3d,
    "fcc": nn.Linear,
}

# Sentinel for unused coordinate dimensions (e.g. depth for conv2d outputs).
UNSET = -1


def injectable_layer_types() -> dict[str, type]:
    """Return a copy of the registry of injectable layer type names."""
    return dict(_INJECTABLE_LAYER_TYPES)


def register_layer_type(name: str, layer_class: type) -> None:
    """Register a custom layer class as a valid fault injection target."""
    if not isinstance(layer_class, type) or not issubclass(layer_class, Module):
        raise TypeError("layer_class must be a Module subclass")
    _INJECTABLE_LAYER_TYPES[name] = layer_class


def verify_layer(module: Module, layer_types: Sequence[str]) -> str | None:
    """Return the registered type name of ``module`` if it is injectable.

    Args:
        module: candidate module.
        layer_types: names of allowed layer types (e.g. ``["conv2d", "fcc"]``).

    Returns:
        The matching type name, or ``None`` if the module is not injectable
        under the requested types.
    """
    for name in layer_types:
        if name not in _INJECTABLE_LAYER_TYPES:
            raise KeyError(
                f"unknown layer type {name!r}; registered: {sorted(_INJECTABLE_LAYER_TYPES)}"
            )
        if isinstance(module, _INJECTABLE_LAYER_TYPES[name]):
            return name
    return None


@dataclass
class LayerInfo:
    """Description of one injectable layer discovered during profiling."""

    index: int
    name: str
    layer_type: str
    weight_shape: tuple[int, ...]
    output_shape: tuple[int, ...] | None = None

    @property
    def num_weights(self) -> int:
        """Number of scalar weights in the layer."""
        return int(np.prod(self.weight_shape)) if self.weight_shape else 0

    @property
    def num_neurons(self) -> int:
        """Number of output activations per input sample (0 if unknown)."""
        if not self.output_shape or len(self.output_shape) < 2:
            return 0
        return int(np.prod(self.output_shape[1:]))


@dataclass
class NeuronFault:
    """A single neuron fault location (Table I convention).

    ``value`` is interpreted by the error model: for bit-flip models it is the
    bit position, for value models it is the replacement value.
    """

    batch: int
    layer: int
    channel: int
    depth: int
    height: int
    width: int
    value: float

    def coordinates(self) -> tuple[int, int, int, int, int, int]:
        """Return the location rows (without the value) as a tuple."""
        return (self.batch, self.layer, self.channel, self.depth, self.height, self.width)


@dataclass
class WeightFault:
    """A single weight fault location.

    For conv weights the rows address ``(out_channel, in_channel, [depth,]
    height, width)`` of the kernel; for fully connected weights ``out_channel``
    and ``in_channel`` address the 2D weight matrix and the remaining rows are
    unused (:data:`UNSET`).
    """

    layer: int
    out_channel: int
    in_channel: int
    depth: int
    height: int
    width: int
    value: float

    def coordinates(self) -> tuple[int, int, int, int, int, int]:
        """Return the location rows (without the value) as a tuple."""
        return (self.layer, self.out_channel, self.in_channel, self.depth, self.height, self.width)


@dataclass
class AppliedFault:
    """Bookkeeping of one applied corruption (written to the result files)."""

    target: str  # "neuron" or "weight"
    layer: int
    layer_name: str
    coordinates: tuple[int, ...]
    bit_position: int | None
    original_value: float
    corrupted_value: float
    flip_direction: str | None

    def as_dict(self) -> dict:
        """Return a CSV/JSON-friendly representation."""
        return {
            "target": self.target,
            "layer": self.layer,
            "layer_name": self.layer_name,
            "coordinates": list(self.coordinates),
            "bit_position": self.bit_position,
            "original_value": self.original_value,
            "corrupted_value": self.corrupted_value,
            "flip_direction": self.flip_direction,
        }


class FaultInjection:
    """Profile a model and produce fault-corrupted copies of it, or sessions on it.

    Args:
        model: the fault-free baseline model.  The ``declare_*`` methods
            corrupt a copy of it; the sessions patch or hook it while a fault
            group is open and restore it bit-exactly / unhook it afterwards.
        batch_size: batch size used for profiling and neuron coordinate checks.
        input_shape: per-sample input shape, e.g. ``(3, 32, 32)``.
        layer_types: names of layer types eligible for injection.
        use_hooks_for_profiling: if False, skip the forward profiling pass
            (output shapes stay unknown; only weight injection is possible).
    """

    def __init__(
        self,
        model: Module,
        batch_size: int = 1,
        input_shape: tuple[int, ...] = (3, 32, 32),
        layer_types: Sequence[str] = ("conv2d", "conv3d", "fcc"),
        use_hooks_for_profiling: bool = True,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.original_model = model
        self.batch_size = batch_size
        self.input_shape = tuple(input_shape)
        self.layer_types = tuple(layer_types)
        self.layers: list[LayerInfo] = []
        self._layer_modules: list[str] = []  # qualified module names per layer index
        self._applied_fault_groups: list[list[AppliedFault]] = []
        self._profile(use_hooks_for_profiling)

    # ------------------------------------------------------------------ #
    # profiling
    # ------------------------------------------------------------------ #
    def _profile(self, run_forward: bool) -> None:
        """Enumerate injectable layers and record weight/output shapes."""
        self.layers = []
        self._layer_modules = []
        for name, module in self.original_model.named_modules():
            type_name = verify_layer(module, self.layer_types)
            if type_name is None:
                continue
            weight_shape = tuple(module.weight.shape) if hasattr(module, "weight") else ()
            self.layers.append(
                LayerInfo(
                    index=len(self.layers),
                    name=name,
                    layer_type=type_name,
                    weight_shape=weight_shape,
                )
            )
            self._layer_modules.append(name)
        if not self.layers:
            raise ValueError(
                "model contains no injectable layers for the requested types "
                f"{list(self.layer_types)}"
            )
        if run_forward:
            self._record_output_shapes()

    def _record_output_shapes(self) -> None:
        """Capture each layer's output shape, probing the model only if need be.

        The shapes come from the model object's record
        (:func:`repro.nn.record.output_shapes`) at this batch size and
        per-sample input shape, where an earlier injector's probe or a head
        fit's calibration pass left them.  Only when a layer has no entry
        there does :meth:`_probe` run.
        """
        shapes = output_shapes(self.original_model, self.batch_size, self.input_shape)
        if any(info.name not in shapes for info in self.layers):
            self._probe(shapes)
        for info in self.layers:
            info.output_shape = shapes[info.name]

    def _probe(self, shapes: dict[str, tuple[int, ...] | None]) -> None:
        """Run a zero batch through the model and note every layer's output shape.

        The probe hooks are attached to the original model and removed again
        afterwards; shape recording never mutates weights, so no clone is
        needed.  Pre-existing user hooks (monitors, loggers) are suspended
        for the duration of the probe forward so profiling stays free of
        observable side effects, exactly as the cloned probe used to be.
        """
        was_training = self.original_model.training
        self.original_model.eval()
        stashed = []
        for module in self.original_model.modules():
            stashed.append((module, module._forward_hooks, module._forward_pre_hooks))
            module._forward_hooks = type(module._forward_hooks)()
            module._forward_pre_hooks = type(module._forward_pre_hooks)()
        seen: dict[str, tuple[int, ...]] = {}

        def make_hook(layer_name: str):
            def hook(module, inputs, output):
                seen[layer_name] = tuple(np.asarray(output).shape)
                return None

            return hook

        for info in self.layers:
            module = self.original_model.get_submodule(info.name)
            module.register_forward_hook(make_hook(info.name))
        dummy = np.zeros((self.batch_size, *self.input_shape), dtype=np.float32)
        try:
            self.original_model(dummy)
        finally:
            for module, hooks, pre_hooks in stashed:
                module._forward_hooks = hooks
                module._forward_pre_hooks = pre_hooks
            self.original_model.train(was_training)
        for info in self.layers:
            shapes[info.name] = seen.get(info.name)

    # ------------------------------------------------------------------ #
    # introspection helpers
    # ------------------------------------------------------------------ #
    def get_layer_info(self, layer_index: int) -> LayerInfo:
        """Return the :class:`LayerInfo` for ``layer_index``."""
        if not 0 <= layer_index < len(self.layers):
            raise IndexError(
                f"layer index {layer_index} out of range (model has {len(self.layers)} "
                "injectable layers)"
            )
        return self.layers[layer_index]

    @property
    def num_layers(self) -> int:
        """Number of injectable layers found in the model."""
        return len(self.layers)

    def layer_weight_counts(self) -> list[int]:
        """Number of weights per injectable layer."""
        return [info.num_weights for info in self.layers]

    def layer_neuron_counts(self) -> list[int]:
        """Number of neurons (per sample) per injectable layer."""
        return [info.num_neurons for info in self.layers]

    # ------------------------------------------------------------------ #
    # neuron fault injection
    # ------------------------------------------------------------------ #
    def declare_neuron_fault_injection(
        self,
        faults: Iterable[NeuronFault],
        error_model: ErrorModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> Module:
        """Return a copy of the model with neuron-corrupting hooks attached.

        Args:
            faults: the neuron fault locations to apply.
            error_model: how the value row is interpreted.  Defaults to a
                bit-flip model where ``fault.value`` is the bit position.
            rng: random generator used by stochastic error models.

        Returns:
            A corrupted model instance; running inference with it applies the
            faults and appends :class:`AppliedFault` records to
            :attr:`applied_faults`.
        """
        faults = list(faults)
        for fault in faults:
            self._validate_neuron_fault(fault)
        error_model = error_model if error_model is not None else BitFlipErrorModel()
        rng = rng if rng is not None else np.random.default_rng(0)
        corrupted = self.original_model.clone()
        corrupted.eval()
        log = self._new_group_log()

        by_layer: dict[int, list[NeuronFault]] = {}
        for fault in faults:
            by_layer.setdefault(fault.layer, []).append(fault)

        for layer_index, layer_faults in by_layer.items():
            info = self.layers[layer_index]
            module = corrupted.get_submodule(info.name)
            module.register_forward_hook(
                self._make_neuron_hook(info, layer_faults, error_model, rng, log)
            )
        return corrupted

    def _make_neuron_hook(
        self,
        info: LayerInfo,
        faults: list[NeuronFault],
        error_model: ErrorModel,
        rng: np.random.Generator,
        log: list[AppliedFault],
    ):
        def hook(module, inputs, output):
            output = np.asarray(output)
            for fault in faults:
                self._corrupt_neuron_at(output, info, fault, error_model, rng, log)
            return output

        return hook

    def _corrupt_neuron_at(
        self,
        output: np.ndarray,
        info: LayerInfo,
        fault: NeuronFault,
        error_model: ErrorModel,
        rng: np.random.Generator,
        log: list[AppliedFault],
        row: int | None = None,
    ) -> None:
        """Corrupt one neuron of ``output`` in place and record it in ``log``.

        ``row`` is the row of ``output`` that holds the fault's image
        (``fault.batch`` by default; a sub-batch pass maps it, :data:`UNSET`
        when the image is not in the sub-batch).  The record keeps the fault's
        own coordinates either way.
        """
        index = self._neuron_index(output.shape, fault, row)
        if index is None:
            return
        original = float(output[index])
        corrupted_value, details = self._corrupt_value(original, fault.value, error_model, rng)
        output[index] = corrupted_value
        log.append(
            AppliedFault(
                target="neuron",
                layer=info.index,
                layer_name=info.name,
                coordinates=fault.coordinates(),
                bit_position=details.get("bit_position"),
                original_value=original,
                corrupted_value=corrupted_value,
                flip_direction=details.get("flip_direction"),
            )
        )

    def _neuron_index(
        self, output_shape: tuple[int, ...], fault: NeuronFault, row: int | None = None
    ) -> tuple | None:
        """Map Table-I coordinates onto an index into the layer output tensor.

        ``row`` replaces ``fault.batch`` as the batch index when given.
        Returns ``None`` when that index is outside the actual batch of the
        current inference (e.g. a smaller final batch).
        """
        ndim = len(output_shape)
        row = fault.batch if row is None else row
        if not 0 <= row < output_shape[0]:
            return None
        if ndim == 2:  # (N, features) -- fully connected
            return (row, fault.channel % output_shape[1])
        if ndim == 4:  # (N, C, H, W) -- conv2d
            return (
                row,
                fault.channel % output_shape[1],
                fault.height % output_shape[2],
                fault.width % output_shape[3],
            )
        if ndim == 5:  # (N, C, D, H, W) -- conv3d
            return (
                row,
                fault.channel % output_shape[1],
                fault.depth % output_shape[2],
                fault.height % output_shape[3],
                fault.width % output_shape[4],
            )
        raise ValueError(f"unsupported output tensor rank {ndim} for neuron injection")

    def _validate_neuron_fault(self, fault: NeuronFault) -> None:
        if not 0 <= fault.layer < len(self.layers):
            raise IndexError(f"neuron fault addresses unknown layer {fault.layer}")
        if fault.batch < 0 or fault.batch >= self.batch_size:
            raise IndexError(
                f"neuron fault batch index {fault.batch} outside batch size {self.batch_size}"
            )
        info = self.layers[fault.layer]
        if info.output_shape is None:
            raise RuntimeError(
                f"layer {info.name} has no recorded output shape; profiling forward pass "
                "is required for neuron injection"
            )

    # ------------------------------------------------------------------ #
    # weight fault injection
    # ------------------------------------------------------------------ #
    def declare_weight_fault_injection(
        self,
        faults: Iterable[WeightFault],
        error_model: ErrorModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> Module:
        """Return a copy of the model with corrupted weight values.

        The corruption is applied immediately (weights are known before the
        inference run, so no hooks are needed, as the paper points out).
        """
        faults = list(faults)
        error_model = error_model if error_model is not None else BitFlipErrorModel()
        rng = rng if rng is not None else np.random.default_rng(0)
        corrupted = self.original_model.clone()
        corrupted.eval()
        log = self._new_group_log()
        for fault in faults:
            info, weight, index = self._locate_weight(corrupted, fault)
            self._corrupt_weight_at(info, weight, index, fault, error_model, rng, log)
        return corrupted

    def weight_patch_session(
        self,
        faults: Iterable[WeightFault],
        error_model: ErrorModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> "WeightPatchSession":
        """Return a clone-free patch session for one weight fault group.

        Entering the session applies the corruptions *in place* on the
        original model; leaving it restores the exact original bit patterns.
        Unlike :meth:`declare_weight_fault_injection` no model copy is made
        and nothing is appended to the shared :attr:`applied_faults` log —
        the per-group records live on the session object.
        """
        faults = list(faults)
        for fault in faults:
            if not 0 <= fault.layer < len(self.layers):
                raise IndexError(f"weight fault addresses unknown layer {fault.layer}")
        return WeightPatchSession(self, faults, error_model, rng)

    def neuron_injection_session(
        self,
        error_model: ErrorModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> "NeuronInjectionSession":
        """Return a session hooking this model for clone-free neuron injection.

        The model is hooked exactly once, in place; the active fault group is
        swapped per inference step via :meth:`NeuronInjectionSession.activate`
        instead of cloning and hooking a copy for every group.
        """
        return NeuronInjectionSession(self, error_model, rng)

    def _locate_weight(
        self, model: Module, fault: WeightFault
    ) -> tuple[LayerInfo, np.ndarray, tuple]:
        """Resolve a weight fault to ``(layer_info, weight_array, index)``."""
        if not 0 <= fault.layer < len(self.layers):
            raise IndexError(f"weight fault addresses unknown layer {fault.layer}")
        info = self.layers[fault.layer]
        module = model.get_submodule(info.name)
        weight = module.weight.data
        return info, weight, self._weight_index(weight.shape, fault)

    def _corrupt_weight_at(
        self,
        info: LayerInfo,
        weight: np.ndarray,
        index: tuple,
        fault: WeightFault,
        error_model: ErrorModel,
        rng: np.random.Generator,
        log: list[AppliedFault],
    ) -> None:
        """Corrupt one weight element in place and record it in ``log``."""
        original = float(weight[index])
        corrupted_value, details = self._corrupt_value(original, fault.value, error_model, rng)
        weight[index] = corrupted_value
        log.append(
            AppliedFault(
                target="weight",
                layer=info.index,
                layer_name=info.name,
                coordinates=fault.coordinates(),
                bit_position=details.get("bit_position"),
                original_value=original,
                corrupted_value=corrupted_value,
                flip_direction=details.get("flip_direction"),
            )
        )

    def _weight_index(self, weight_shape: tuple[int, ...], fault: WeightFault) -> tuple:
        """Map weight fault coordinates onto an index into the weight tensor."""
        ndim = len(weight_shape)
        if ndim == 2:  # Linear: (out_features, in_features)
            return (fault.out_channel % weight_shape[0], fault.in_channel % weight_shape[1])
        if ndim == 4:  # Conv2d: (out, in, kh, kw)
            return (
                fault.out_channel % weight_shape[0],
                fault.in_channel % weight_shape[1],
                fault.height % weight_shape[2],
                fault.width % weight_shape[3],
            )
        if ndim == 5:  # Conv3d: (out, in, kd, kh, kw)
            return (
                fault.out_channel % weight_shape[0],
                fault.in_channel % weight_shape[1],
                fault.depth % weight_shape[2],
                fault.height % weight_shape[3],
                fault.width % weight_shape[4],
            )
        raise ValueError(f"unsupported weight tensor rank {ndim} for weight injection")

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _corrupt_value(
        original: float,
        fault_value: float,
        error_model: ErrorModel,
        rng: np.random.Generator,
    ) -> tuple[float, dict]:
        """Apply the error model, honouring the fault's pre-drawn value row."""
        if isinstance(error_model, BitFlipErrorModel):
            # The fault matrix already drew the bit position: replay it exactly.
            pinned = replace(error_model, bit_position=int(fault_value))
            return pinned.corrupt(original, rng)
        if isinstance(error_model, StuckAtErrorModel):
            # Permanent faults are also located at the pre-drawn bit position.
            pinned = replace(error_model, bit_position=int(fault_value))
            return pinned.corrupt(original, rng)
        if error_model.name == "random_value":
            # The fault matrix already drew the replacement value.
            corrupted = float(fault_value)
            return corrupted, {
                "original_value": original,
                "corrupted_value": corrupted,
                "bit_position": None,
                "flip_direction": None,
            }
        return error_model.corrupt(original, rng)

    # ------------------------------------------------------------------ #
    # applied-fault bookkeeping
    # ------------------------------------------------------------------ #
    def _new_group_log(self) -> list[AppliedFault]:
        """Open a fresh per-group log on the shared history and return it."""
        log: list[AppliedFault] = []
        self._applied_fault_groups.append(log)
        return log

    @property
    def applied_faults(self) -> list[AppliedFault]:
        """Flat log of every corruption applied via the ``declare_*`` methods.

        The log is grouped internally (one sub-list per ``declare_*`` call,
        see :meth:`applied_fault_groups`); this property flattens it for
        backwards compatibility.  Clone-free sessions keep their records on
        the session object instead, so large campaigns no longer grow this
        shared log without bound.
        """
        return [fault for group in self._applied_fault_groups for fault in group]

    @applied_faults.setter
    def applied_faults(self, value: Iterable[AppliedFault]) -> None:
        value = list(value)
        self._applied_fault_groups = [value] if value else []

    def applied_fault_groups(self) -> list[list[AppliedFault]]:
        """Per-fault-group view of the applied log (one list per declare call)."""
        return [list(group) for group in self._applied_fault_groups]

    def reset(self) -> None:
        """Clear the applied-fault log (e.g. between experiment repetitions)."""
        self._applied_fault_groups = []


class WeightPatchSession:
    """Apply one weight fault group in place and restore it bit-exactly.

    The campaign engine's clone-free replacement for
    :meth:`FaultInjection.declare_weight_fault_injection`: instead of deep
    copying the model per fault group, the original weights are patched in
    place on ``__enter__`` and the exact original bit patterns are written
    back on ``__exit__`` (the saved values are numpy scalars of the weight's
    own dtype, so the restore is bit-exact even for NaN/Inf corruptions).

    Usage::

        with fi.weight_patch_session(faults) as session:
            corrupted_output = session.model(batch)
        # session.model (the original model) is bit-exactly restored here
        records = session.applied_faults

    Attributes:
        model: the patched model — the *original* model instance.
        applied_faults: per-group :class:`AppliedFault` records (populated on
            enter; weights are static, so no inference is needed).
    """

    def __init__(
        self,
        fi: FaultInjection,
        faults: list[WeightFault],
        error_model: ErrorModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._fi = fi
        self._faults = list(faults)
        self._error_model = error_model if error_model is not None else BitFlipErrorModel()
        if rng is None and getattr(self._error_model, "draws", True):
            rng = np.random.default_rng(0)
        # ``None`` only for an error model that never draws from it.
        self._rng = rng
        self.model = fi.original_model
        self.applied_faults: list[AppliedFault] = []
        self._saved: list[tuple[np.ndarray, tuple, np.generic]] = []
        # Corruptions computed on first enter, replayed verbatim afterwards so
        # re-entering the session (e.g. per-epoch campaigns running the same
        # group for every batch) applies identical values even for stochastic
        # error models.
        self._replay: list[tuple[np.ndarray, tuple, np.generic]] | None = None

    @property
    def active(self) -> bool:
        """True while the faults are patched into the model."""
        return bool(self._saved)

    @property
    def faulted_layers(self) -> list[int]:
        """Sorted injectable-layer indices this group corrupts.

        Layer indices follow registration (profiling) order, which is not
        necessarily execution order — suffix-only campaign forwards therefore
        resume from the earliest *executed* segment over all of them.
        """
        return sorted({fault.layer for fault in self._faults})

    def __enter__(self) -> "WeightPatchSession":
        if self._saved:
            raise RuntimeError("weight patch session is already active")
        try:
            if self._replay is not None:
                for weight, index, corrupted_value in self._replay:
                    self._saved.append((weight, index, weight[index]))
                    weight[index] = corrupted_value
                return self
            self.applied_faults = []
            replay: list[tuple[np.ndarray, tuple, np.generic]] = []
            for fault in self._faults:
                info, weight, index = self._fi._locate_weight(self.model, fault)
                # ``weight[index]`` yields a numpy scalar of the array's dtype:
                # restoring it by assignment reproduces the original bit pattern.
                self._saved.append((weight, index, weight[index]))
                self._fi._corrupt_weight_at(
                    info, weight, index, fault, self._error_model, self._rng, self.applied_faults
                )
                replay.append((weight, index, weight[index]))
            self._replay = replay
            return self
        except BaseException:
            # __exit__ never runs when __enter__ raises: undo the partial
            # patch here so the bit-exact-restore guarantee still holds.
            self.restore()
            raise

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def restore(self) -> None:
        """Write the saved original bit patterns back (reverse order)."""
        while self._saved:
            weight, index, original = self._saved.pop()
            weight[index] = original


class NeuronInjectionSession:
    """Clone-free neuron fault injection: hooks on the model it was given.

    Every injectable layer of the *original* model gets one forward hook,
    registered exactly *once*; afterwards the active fault group is swapped
    per inference step via :meth:`activate` (the per-step cost of the legacy
    path, a full model deep copy, becomes a dictionary update).  While no
    group is open the hooks return ``None``, so the model computes exactly
    what it did before; :meth:`close` removes them.

    Usage::

        session = fi.neuron_injection_session()
        for faults in fault_groups:
            with session.activate(faults) as group:
                corrupted_output = group.model(batch)
            records = group.applied_faults
        session.close()

    The session itself is also a context manager (``close`` on exit).
    """

    def __init__(
        self,
        fi: FaultInjection,
        error_model: ErrorModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._fi = fi
        self._error_model = error_model if error_model is not None else BitFlipErrorModel()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Active-group rng; swapped by NeuronFaultGroup when a group carries
        # its own (per-group-derived) stream.
        self._active_rng = self._rng
        self.model = fi.original_model
        self._active: dict[int, list[NeuronFault]] = {}
        # Batch row -> row of the sub-batch being run (``None``: the whole batch).
        self._rows: dict[int, int] | None = None
        self._log: list[AppliedFault] = []
        self._handles: list[RemovableHandle] = []
        self.attach()

    def attach(self) -> None:
        """Register the per-layer injection hooks (idempotent)."""
        if self._handles:
            return
        for info in self._fi.layers:
            module = self.model.get_submodule(info.name)
            self._handles.append(module.register_forward_hook(self._make_hook(info)))

    def _make_hook(self, info: LayerInfo):
        def hook(module, inputs, output):
            faults = self._active.get(info.index)
            if not faults:
                return None
            output = np.asarray(output)
            rows = self._rows
            for fault in faults:
                row = None if rows is None else rows.get(fault.batch, UNSET)
                self._fi._corrupt_neuron_at(
                    output, info, fault, self._error_model, self._active_rng, self._log, row
                )
            return output

        return hook

    def set_faults(self, faults: Iterable[NeuronFault]) -> None:
        """Make ``faults`` the active group (validated first)."""
        active: dict[int, list[NeuronFault]] = {}
        for fault in faults:
            self._fi._validate_neuron_fault(fault)
            active.setdefault(fault.layer, []).append(fault)
        self._active = active

    def clear_faults(self) -> None:
        """Deactivate the current fault group (the model runs fault-free)."""
        self._active = {}

    def activate(
        self,
        faults: Iterable[NeuronFault],
        rng: np.random.Generator | None = None,
    ) -> "NeuronFaultGroup":
        """Return a context manager scoping one fault group on this session.

        Args:
            faults: the group's neuron faults.
            rng: optional group-specific rng used while the group is active
                (the session's own rng otherwise).
        """
        return NeuronFaultGroup(self, list(faults), rng=rng)

    def close(self) -> None:
        """Remove the injection hooks (the session becomes inert)."""
        for handle in self._handles:
            handle.remove()
        self._handles = []
        self._active = {}

    def __enter__(self) -> "NeuronInjectionSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NeuronFaultGroup:
    """One fault group activated on a shared :class:`NeuronInjectionSession`.

    Mirrors the :class:`WeightPatchSession` protocol (``model`` /
    ``applied_faults`` / context manager) so campaign loops can treat both
    injection targets uniformly.

    Attributes:
        owns_session: set on a one-off group, whose session nobody else
            closes: the model is hooked only while the group is open.
    """

    def __init__(
        self,
        session: NeuronInjectionSession,
        faults: list[NeuronFault],
        rng: np.random.Generator | None = None,
    ):
        self._session = session
        self._faults = faults
        self._rng = rng
        self.applied_faults: list[AppliedFault] = []
        self.owns_session = False

    @property
    def model(self) -> Module:
        """The session's model — the original one, hooked."""
        return self._session.model

    @property
    def faulted_layers(self) -> list[int]:
        """Sorted injectable-layer indices this group corrupts."""
        return sorted({fault.layer for fault in self._faults})

    def rows(self, size: int) -> tuple[int, ...]:
        """Sorted distinct batch rows below ``size`` that the group's faults name.

        Every other row of a batch of ``size`` images runs fault-free.
        """
        return tuple(sorted({fault.batch for fault in self._faults if fault.batch < size}))

    @contextlib.contextmanager
    def sub_batch(self, rows: Sequence[int]) -> Iterator[None]:
        """Run the enclosed passes on the batch rows ``rows`` only.

        The passes' input is the ``(len(rows), ...)`` sub-batch of those
        rows, in that order: a fault of batch row ``rows[i]`` lands in row
        ``i``, one of a row outside ``rows`` nowhere.  The injection hooks
        make the same error-model calls in the same order as on the whole
        batch, and the records keep each fault's own batch index.
        """
        self._session._rows = {row: position for position, row in enumerate(rows)}
        try:
            yield
        finally:
            self._session._rows = None

    @property
    def rng(self) -> np.random.Generator:
        """The generator a stochastic error model draws from while the group is open.

        Its ``bit_generator.state`` as a pass entered the group, put back,
        makes the group corrupt the next pass as it did that one (a step of
        a group shared by several steps can be replayed).
        """
        return self._rng if self._rng is not None else self._session._rng

    def __enter__(self) -> "NeuronFaultGroup":
        self._session.set_faults(self._faults)
        if self.owns_session:
            self._session.attach()
        self._session._active_rng = self.rng
        # Bind the session log to this group so hook records land here.
        self.applied_faults = self._session._log = []
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._session.clear_faults()
        if self.owns_session:
            self._session.close()
