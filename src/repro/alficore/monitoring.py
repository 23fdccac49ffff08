"""Inference monitors.

``alficore`` offers monitoring capabilities that detect NaN or Inf values in
intermediate activations during a (fault-injected) inference run and allow
custom monitoring functions to be attached to the same hook points.  Detected
NaN/Inf events are what the evaluation later counts as DUE (Detected and
Uncorrectable Errors) as opposed to silent data errors.

Forward hooks fire in registration order, so a monitor attached *after* the
fault-injection hooks of a neuron session scans the corrupted activation of
a faulted layer; the campaign engine attaches its one monitor per lane in
that order and gates it with :attr:`InferenceMonitor.enabled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.nn.module import Module, RemovableHandle


@dataclass
class MonitorResult:
    """Summary of what the monitors observed during one inference."""

    nan_layers: list[str] = field(default_factory=list)
    inf_layers: list[str] = field(default_factory=list)
    custom_events: list[dict] = field(default_factory=list)

    @property
    def nan_detected(self) -> bool:
        """True if any monitored layer produced a NaN."""
        return len(self.nan_layers) > 0

    @property
    def inf_detected(self) -> bool:
        """True if any monitored layer produced an Inf."""
        return len(self.inf_layers) > 0

    @property
    def due_detected(self) -> bool:
        """True if the inference would be flagged as a DUE (NaN or Inf seen)."""
        return self.nan_detected or self.inf_detected

    def as_dict(self) -> dict:
        """Return a JSON-friendly summary."""
        return {
            "nan_detected": self.nan_detected,
            "inf_detected": self.inf_detected,
            "nan_layers": list(self.nan_layers),
            "inf_layers": list(self.inf_layers),
            "custom_events": list(self.custom_events),
        }


# A custom monitor gets (layer_name, output_array) and returns an event dict or None.
CustomMonitor = Callable[[str, np.ndarray], dict | None]


class InferenceMonitor:
    """Attach NaN/Inf (and custom) monitors to all or selected layers of a model.

    Usage::

        monitor = InferenceMonitor(model)
        monitor.attach()
        output = model(batch)
        result = monitor.collect()     # MonitorResult for this inference
        monitor.detach()
    """

    def __init__(
        self,
        model: Module,
        layer_names: list[str] | None = None,
        custom_monitors: list[CustomMonitor] | None = None,
    ):
        self.model = model
        self.layer_names = layer_names
        self.custom_monitors = list(custom_monitors or [])
        self._handles: list[RemovableHandle] = []
        self._current = MonitorResult()
        # Cheap gate for long-lived monitors: a campaign lane keeps its one
        # monitor attached for the whole run — on the model both its golden
        # and its faulty pass run on — and flips this flag instead of paying
        # the per-layer NaN/Inf scan on passes whose events nobody consumes.
        self.enabled = True

    def add_custom_monitor(self, monitor: CustomMonitor) -> None:
        """Register an additional custom monitoring callback."""
        self.custom_monitors.append(monitor)

    def attach(self) -> None:
        """Attach monitoring hooks to the selected layers (idempotent)."""
        if self._handles:
            return
        for name, module in leaf_modules(self.model):
            if self.layer_names is not None and name not in self.layer_names:
                continue
            self._handles.append(module.register_forward_hook(self._make_hook(name)))

    def detach(self) -> None:
        """Remove all monitoring hooks."""
        for handle in self._handles:
            handle.remove()
        self._handles = []

    def reset(self) -> None:
        """Clear collected events (start of a new inference)."""
        self._current = MonitorResult()

    def collect(self) -> MonitorResult:
        """Return the events of the current inference and reset the collector."""
        result = self._current
        self._current = MonitorResult()
        return result

    def event_counts(self) -> tuple[int, int, int]:
        """Current ``(nan, inf, custom)`` event counts without resetting.

        Forward plans snapshot these at every segment boundary so a
        suffix-only faulty pass can inherit exactly the prefix's events.
        """
        current = self._current
        return (len(current.nan_layers), len(current.inf_layers), len(current.custom_events))

    def _make_hook(self, layer_name: str):
        def hook(module, inputs, output):
            if not self.enabled:
                return None
            if isinstance(output, (list, tuple)):
                # Detection heads return lists of Detections (boxes/scores);
                # route them through the structured NaN/Inf check so DUEs in
                # object-detection campaigns are not undercounted.
                has_nan, has_inf = output_has_nan_or_inf(output)
                if has_nan:
                    self._current.nan_layers.append(layer_name)
                if has_inf:
                    self._current.inf_layers.append(layer_name)
                return None
            values = np.asarray(output)
            if values.dtype.kind == "f":
                has_nan, has_inf = _nan_inf(values)
                if has_nan:
                    self._current.nan_layers.append(layer_name)
                if has_inf:
                    self._current.inf_layers.append(layer_name)
                for monitor in self.custom_monitors:
                    event = monitor(layer_name, values)
                    if event is not None:
                        self._current.custom_events.append(dict(event))
            return None

        # Plan executors (repro.nn.ir.module_blocked) may bypass a module
        # call only while every forward hook is transparent.  A disabled
        # monitor hook reads nothing and never alters the output, so fused
        # execution stays legal outside monitored passes.
        hook.plan_transparent = lambda: not self.enabled
        return hook

    def __enter__(self) -> "InferenceMonitor":
        self.attach()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()


class RangeMonitor:
    """Custom monitor flagging activations outside a configured magnitude bound.

    This is a simple example of the "integration of custom monitoring"
    extension point described in the paper; it is also useful to observe how
    often faults push activations outside their fault-free operating range.
    """

    def __init__(self, bound: float = 1e4):
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.bound = float(bound)

    def __call__(self, layer_name: str, output: np.ndarray) -> dict | None:
        finite = output[np.isfinite(output)]
        if finite.size == 0:
            return None
        peak = float(np.abs(finite).max())
        if peak > self.bound:
            return {"monitor": "range", "layer": layer_name, "peak": peak, "bound": self.bound}
        return None


def leaf_modules(model: Module) -> Iterator[tuple[str, Module]]:
    """The ``(name, module)`` pairs a monitor scans: every named leaf module.

    Only leaves are monitored; containers just forward tensors.
    """
    for name, module in model.named_modules():
        if name and not module._modules:
            yield name, module


def finite_rows(output, size: int) -> np.ndarray:
    """Per batch row of ``output``: whether a monitor scan would find no NaN/Inf in it.

    A float array with ``size`` rows is judged row by row; anything else (a
    list of detections, an array without a batch axis) as a whole.
    Non-float outputs are never scanned, so all their rows count as finite.
    """
    if isinstance(output, (list, tuple)):
        return np.full(size, not any(output_has_nan_or_inf(output)))
    values = np.asarray(output)
    if values.dtype.kind != "f":
        return np.ones(size, dtype=bool)
    if values.ndim == 0 or values.shape[0] != size:
        return np.full(size, bool(np.isfinite(values).all()))
    return np.isfinite(values.reshape(size, -1)).all(axis=1)


def _nan_inf(values: np.ndarray) -> tuple[bool, bool]:
    """``(has_nan, has_inf)`` of a float array.

    Almost every monitored tensor is finite, so one ``isfinite`` pass decides;
    only a non-finite tensor pays the two scans that tell NaN from Inf.
    """
    if np.isfinite(values).all():
        return False, False
    return bool(np.isnan(values).any()), bool(np.isinf(values).any())


def output_has_nan_or_inf(output) -> tuple[bool, bool]:
    """Check a model output (array or list of detections) for NaN / Inf values.

    Returns:
        Tuple ``(has_nan, has_inf)``.
    """
    if not isinstance(output, (list, tuple)):
        return _nan_inf(np.asarray(output, dtype=np.float64))
    has_nan = False
    has_inf = False
    for item in output:
        if hasattr(item, "boxes"):
            arrays = [item.boxes, item.scores]
        else:
            arrays = [item]
        for values in arrays:
            item_nan, item_inf = _nan_inf(np.asarray(values, dtype=np.float64))
            has_nan |= item_nan
            has_inf |= item_inf
    return has_nan, has_inf
