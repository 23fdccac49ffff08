"""Forward plans: flatten a module tree into a resumable segment chain.

Fault-injection campaigns run the same input through a fault-free ("golden")
and a faulty model whose weights differ only from the *first faulted layer*
onwards.  Every activation upstream of that layer is bit-identical between
the two passes, so recomputing it for the faulty one is pure waste.  A
:class:`ForwardPlan` makes the prefix reusable:

* the module tree is flattened into an ordered list of *segments* whose
  outputs chain linearly (``a_{i+1} = segment_i(a_i)``).  Sub-trees whose
  children do not form such a chain (e.g. residual blocks) are kept as one
  atomic segment, so the plan is exact for any architecture — in the worst
  case it degenerates to a single segment and prefix reuse is simply a no-op;
* :meth:`run_recording` executes a full pass while checkpointing selected
  boundary activations (into a reusable :class:`ActivationArena` or as owned
  copies for a cache) and, optionally, snapshotting monitor event counts at
  every boundary so NaN/Inf events can later be attributed to the prefix.
  Handed a boundary value known beforehand (``seed``), it runs only the
  segments up to the last checkpoint it records below that boundary and
  resumes there;
* :meth:`resume` re-enters the pass at segment ``k`` from a cached boundary
  activation (``k == 0``: from the input itself) and only executes the
  suffix — and, handed the golden pass it resumed from, stops at the first
  later checkpoint its activation equals byte for byte: from there on the
  pass would only recompute the golden output, so it returns that object
  instead (*tail reuse*).  The golden pass need not be a cached one: one
  checkpoint behind the fault, recorded by the same step, is enough.

The flattening is *trace-based*: one instrumented forward pass records every
module call with the identities of its first input and its output, and a
sub-tree is linearised only if its children were each called exactly once,
with exactly one positional input, and chained by object identity from the
parent's input to the parent's output.  The same trace says where every
module *executes*: :meth:`ForwardPlan.segment_for` maps a module to the
earliest segment inside which it was seen called, whatever name it is
registered under.  The resulting plan is validated by replaying the traced
input segment-by-segment and comparing the output bit-exactly against the
traced full-model output.

Chain, containment and executor choice are properties of the topology, not
of the batch size, so campaigns trace with the first sample of their first
batch (three one-sample forwards per model object instead of three
campaign-sized ones) and run the plan at any batch size afterwards.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.nn.ir import make_executor
from repro.nn.module import Module


@dataclass
class _TraceCall:
    """One module invocation recorded during the instrumented forward pass."""

    module: Module
    num_inputs: int
    in_id: int | None
    out_id: int | None = None
    children: list["_TraceCall"] = field(default_factory=list)


class ActivationArena:
    """Reusable per-boundary activation buffers for recording forward passes.

    Recording the same plan step after step would otherwise allocate a fresh
    checkpoint array per boundary per step; the arena keeps one buffer per
    boundary index and copies into it when shape and dtype match.
    """

    def __init__(self) -> None:
        self._buffers: dict[int, np.ndarray] = {}

    def store(self, index: int, value):
        """Store a snapshot of ``value`` for boundary ``index`` and return it."""
        if not isinstance(value, np.ndarray):
            # Non-array boundaries (a detector's list of detections) are
            # kept by reference: only its last segment produces one, so no
            # later pass overwrites it.
            return value
        buffer = self._buffers.get(index)
        if buffer is None or buffer.shape != value.shape or buffer.dtype != value.dtype:
            buffer = np.empty_like(value)
            self._buffers[index] = buffer
        np.copyto(buffer, value)
        return buffer

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Drop all buffers."""
        self._buffers = {}


def _snapshot(value):
    """Owned copy of a boundary value (for cache entries that outlive a step)."""
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    return value


def take_rows(array: np.ndarray, rows) -> np.ndarray:
    """The batch rows ``rows`` of ``array``, in that order (a view for one row)."""
    if len(rows) == 1:
        return array[rows[0] : rows[0] + 1]
    return array[list(rows)]


# Unsigned words as wide as an element: comparing them compares bytes.
_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _bitwise_equal(a, b) -> bool:
    """Bit-exact structural comparison (NaN payloads and the sign of zero
    like any other pattern).

    Arrays compare by bytes — as unsigned words of the element size where
    there is one, without serialising either side — lists/tuples recurse
    (covering detection-style list-of-objects outputs via their
    box/score/label arrays).  Anything the function cannot compare counts as
    *unequal*, so an unvalidatable output type invalidates the plan instead
    of silently trusting it.
    """
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        word = _WORDS.get(a.dtype.itemsize)
        if word is None or a.dtype.hasobject:
            return a.tobytes() == b.tobytes()
        return bool((a.view(word) == b.view(word)).all())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_bitwise_equal(x, y) for x, y in zip(a, b))
    if hasattr(a, "boxes") and hasattr(b, "boxes"):
        return all(
            _bitwise_equal(
                np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
            )
            for field in ("boxes", "scores", "labels")
        )
    if isinstance(a, (int, float, np.generic)) and isinstance(b, (int, float, np.generic)):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return False


class ForwardPlan:
    """An ordered, resumable segmentation of one model's forward pass.

    Build with :meth:`trace`.  A plan with :attr:`valid` ``False`` (no linear
    chain found, or the replay validation failed) must not be used for
    prefix reuse; callers fall back to plain full forward passes.
    """

    def __init__(
        self,
        model: Module,
        segments: list[Module],
        segment_names: list[str],
        valid: bool,
        executor: str = "module",
        executed_in: dict[str, tuple[int, int]] | None = None,
    ):
        self.model = model
        self.segments = segments
        self.segment_names = segment_names
        self.valid = valid
        # Module name -> (earliest, latest) segment inside which the trace
        # saw the module called (see _containment); without a trace, the
        # segments themselves.
        self._executed_in = (
            executed_in
            if executed_in is not None
            else {name: (index, index) for index, name in enumerate(segment_names)}
        )
        # Pluggable execution backend (see repro.nn.ir).  The constructor
        # trusts the name; trace() validates non-default executors bitwise
        # against the traced output before handing out the plan.
        self.executor_name = executor
        self._executor = make_executor(executor, self)
        #: boundary at which the last :meth:`resume` rejoined its golden pass
        #: (``None``: it ran to the end)
        self.rejoined_at: int | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def trace(
        cls, model: Module, example_input: np.ndarray, executor: str = "module"
    ) -> "ForwardPlan":
        """Trace one forward pass of ``model`` and build its plan.

        The instrumented pass runs with whatever hooks are currently
        registered (inactive injection hooks are no-ops), so it must be
        called outside any active fault group.

        Args:
            model: the model to plan.
            example_input: the input to trace and replay with.  Any batch
                size the model accepts gives the same plan; campaigns pass
                one sample (``images[:1]``), since the trace pins every
                activation it sees until the pass ends.
            executor: execution backend name (see
                :func:`repro.nn.ir.register_executor`).  A non-default
                executor is validated by replaying the traced input and
                comparing the output bit-exactly; on any mismatch or error
                the plan falls back to the ``"module"`` executor with a
                ``RuntimeWarning``, so a requested executor never changes
                results.
        """
        root_call, output = cls._record_trace(model, example_input)
        calls = cls._linearize(root_call)
        names = {id(module): name for name, module in model.named_modules()}
        segments = [call.module for call in calls]
        segment_names = [names.get(id(module), "") for module in segments]
        executed_in = cls._containment(model, calls)

        def build(executor_name: str) -> "ForwardPlan":
            return cls(
                model,
                segments,
                segment_names,
                valid=True,
                executor=executor_name,
                executed_in=executed_in,
            )

        valid = len(segments) > 1
        if valid:
            plan = build("module")
            try:
                replayed = plan.resume(0, example_input)
            except Exception:
                valid = False
            else:
                valid = _bitwise_equal(replayed, output)
        if not valid:
            # Degenerate single-segment plan: resume(0) is a full forward.
            return cls(model, [model], [""], valid=False)
        if executor != "module":
            try:
                candidate = build(executor)
                if _bitwise_equal(candidate.resume(0, example_input), output):
                    return candidate
                reason = "replay differs from traced output"
            except Exception as error:
                reason = repr(error)
            warnings.warn(
                f"{type(model).__name__}: executor {executor!r} dropped for "
                f"'module' ({reason})",
                RuntimeWarning,
                stacklevel=2,
            )
        return plan

    @staticmethod
    def _record_trace(model: Module, example_input) -> tuple[_TraceCall, object]:
        stack: list[_TraceCall] = []
        root: list[_TraceCall] = []
        # Pin every traced array for the duration of the trace so that id()
        # values cannot be recycled by the allocator mid-pass.
        pinned: list[object] = []

        def pre_hook(module, inputs):
            call = _TraceCall(
                module=module,
                num_inputs=len(inputs),
                in_id=id(inputs[0]) if inputs else None,
            )
            pinned.extend(inputs)
            if stack:
                stack[-1].children.append(call)
            else:
                root.append(call)
            stack.append(call)
            return None

        def post_hook(module, inputs, output):
            call = stack.pop()
            call.out_id = id(output)
            pinned.append(output)
            return None

        handles = []
        seen: set[int] = set()
        for module in model.modules():
            if id(module) in seen:
                continue
            seen.add(id(module))
            handles.append(module.register_forward_pre_hook(pre_hook))
            handles.append(module.register_forward_hook(post_hook))
        try:
            output = model(example_input)
        finally:
            for handle in handles:
                handle.remove()
        if len(root) != 1 or stack:
            raise RuntimeError("forward trace did not produce a single root call")
        return root[0], output

    @classmethod
    def _linearize(cls, call: _TraceCall) -> list[_TraceCall]:
        """Flatten a traced call into chain elements (atomic if not linear)."""
        children = call.children
        if not children:
            return [call]
        module_ids = [id(child.module) for child in children]
        chained = (
            len(set(module_ids)) == len(module_ids)
            and all(child.num_inputs == 1 for child in children)
            and children[0].in_id == call.in_id
            and children[-1].out_id == call.out_id
            and all(nxt.in_id == prev.out_id for prev, nxt in zip(children, children[1:]))
        )
        if not chained:
            return [call]
        flattened: list[_TraceCall] = []
        for child in children:
            flattened.extend(cls._linearize(child))
        return flattened

    @staticmethod
    def _containment(model: Module, calls: list[_TraceCall]) -> dict[str, tuple[int, int]]:
        """Map every traced module name to the (earliest, latest) segment it ran inside.

        ``calls`` are the chain elements in execution order; a module counts
        as running inside a segment when the trace saw it called anywhere
        below that segment's call, whether or not it is registered there.
        The two differ only for a module that atomic segments share.
        """
        span: dict[int, tuple[int, int]] = {}
        for index, call in enumerate(calls):
            pending = [call]
            while pending:
                current = pending.pop()
                first, _ = span.get(id(current.module), (index, index))
                span[id(current.module)] = (first, index)
                pending.extend(current.children)
        return {
            name: span[id(module)]
            for name, module in model.named_modules()
            if id(module) in span
        }

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_segments(self) -> int:
        """Number of chain segments (1 for a degenerate plan)."""
        return len(self.segments)

    def segment_for(self, module_name: str) -> int | None:
        """Index of the earliest segment that executes module ``module_name``.

        Containment is *traced*, not read off the dotted name: a module maps
        to the first segment inside which the trace saw it called, so a layer
        registered on the root (or under a later segment) but called from
        inside an atomic segment maps to that segment.  Resuming a faulty
        pass at this index guarantees the faulted module is (re-)executed:
        for a module buried inside an atomic segment the whole segment is
        re-run.  ``None`` for a name the trace never saw called.
        """
        return self._executed_in.get(module_name, (None, None))[0]

    def last_segment_for(self, module_name: str) -> int | None:
        """Index of the latest segment that executes module ``module_name``.

        Behind this segment a pass no longer calls the module, which is what
        lets :meth:`resume` compare a faulty pass with its golden one there.
        Equal to :meth:`segment_for` unless atomic segments share the module.
        """
        return self._executed_in.get(module_name, (None, None))[1]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def resume(
        self, start: int, activation, golden=None, after: int | None = None, rows=None
    ):
        """Execute the segments ``[start, ...)`` from a boundary activation.

        ``activation`` must be the (golden) boundary value ``a_start`` — the
        input of segment ``start``.  ``resume(0, x)`` is a full pass.

        Args:
            start: first segment to execute.
            activation: the boundary value ``a_start``.
            golden: the recorded golden pass ``activation`` came from (anything
                with ``boundaries`` and ``output``, e.g. a
                :class:`~repro.alficore.goldencache.GoldenCacheEntry`).  The
                pass then stops at the first checkpointed boundary whose
                ndarray it reproduces byte for byte and returns
                ``golden.output`` itself: every later segment would see the
                golden input under the same weights.  :attr:`rejoined_at`
                says where (``None``: the pass ran to the end).
            after: index of the last segment that differs from the golden
                model (defaults to ``start``); only boundaries behind it are
                compared, so every fault of the pass has fired by then.
            rows: the batch rows of the golden pass that ``activation``
                holds, when it is a sub-batch of them (see :func:`take_rows`):
                boundaries are compared with those rows of the golden
                checkpoints, and a rejoin still returns the whole
                ``golden.output``, whose other rows the pass never touched.
        """
        stop = len(self.segments)
        if not 0 <= start <= stop:
            raise IndexError(f"resume index {start} outside plan of {stop} segments")
        self.rejoined_at = None
        if golden is not None:
            after = start if after is None else after
            for boundary in sorted(index for index in golden.boundaries if after < index < stop):
                activation = self._executor.run_range(start, boundary, activation)
                start = boundary
                # Arrays only: what else a boundary may hold (a detector's
                # list of feature maps) is never taken for the golden value.
                if not isinstance(activation, np.ndarray):
                    continue
                expected = golden.boundaries[boundary]
                if rows is not None:
                    expected = take_rows(expected, rows)
                if _bitwise_equal(activation, expected):
                    self.rejoined_at = boundary
                    return golden.output
        return self._executor.run_range(start, stop, activation)

    def run_prefix(self, x, stop: int):
        """Execute segments ``[0, stop)`` and return the boundary value ``a_stop``."""
        if not 0 <= stop <= len(self.segments):
            raise IndexError(f"prefix stop {stop} outside plan of {len(self.segments)} segments")
        return self._executor.run_range(0, stop, x)

    def run_recording(
        self,
        x,
        boundaries="all",
        arena: ActivationArena | None = None,
        monitor=None,
        seed: tuple[int, object] | None = None,
    ):
        """Run a full pass while checkpointing boundary activations.

        Args:
            x: the model input (boundary 0; never recorded).
            boundaries: ``"all"`` or an iterable of boundary indices in
                ``[1, num_segments)`` to checkpoint.
            arena: reuse buffers of this arena for the checkpoints; without
                an arena each checkpoint is an owned copy (safe to cache
                beyond the current step).
            monitor: optional :class:`~repro.alficore.monitoring.InferenceMonitor`
                whose event counts are snapshotted before every segment, so a
                later suffix-only pass can inherit the prefix events.  The
                caller owns reset/enable/collect of the monitor.
            seed: ``(index, value)``, the boundary value ``a_index`` known
                beforehand.  The pass then runs only the segments up to the
                last wanted boundary below ``index`` and resumes at ``index``
                from ``value``; the segments in between are not run, so their
                marks repeat the counts before them (the caller vouches that
                they raise no event).

        Returns:
            Tuple ``(output, checkpoints, marks)`` where ``checkpoints`` maps
            boundary index to activation and ``marks`` (or ``None`` without a
            monitor) is a list of ``num_segments + 1`` event-count tuples:
            ``marks[k]`` are the counts accumulated before segment ``k`` ran.
        """
        wanted = None if boundaries == "all" else set(boundaries)
        checkpoints: dict[int, object] = {}
        marks: list[tuple[int, int, int]] | None = [] if monitor is not None else None
        skipped = range(0)
        if seed is not None:
            seed_at, seed_value = seed
            if wanted is not None:
                last = max((index for index in wanted if index < seed_at), default=0)
                skipped = range(last, seed_at)
        value = x
        for index in range(len(self.segments)):
            if seed is not None and index == seed_at:
                value = seed_value
            if index > 0 and (wanted is None or index in wanted):
                checkpoints[index] = (
                    arena.store(index, value) if arena is not None else _snapshot(value)
                )
            if marks is not None:
                marks.append(monitor.event_counts())
            if index in skipped:
                continue
            value = self._executor.run_segment(index, value)
        if marks is not None:
            marks.append(monitor.event_counts())
        return value, checkpoints, marks
