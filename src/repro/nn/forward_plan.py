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
  boundary activations as owned copies (a cache may keep them beyond the
  step).  Handed a boundary value known beforehand (``seed``), it runs only
  the segments up to the last checkpoint it records below that boundary and
  resumes there;
* :meth:`resume` re-enters the pass at segment ``k`` from a boundary
  activation (``k == 0``: from the input itself) and only executes the
  suffix;
* :meth:`resume_stack` runs the suffixes of several passes as one stacked
  batch, each pass joining the stack at its own boundary.  Handed the golden
  pass each one resumed from, a pass leaves the stack at the first later
  checkpoint its rows equal byte for byte: from there on it would only
  recompute the golden output, so it takes that object instead (*tail
  reuse*).  The golden pass need not be a cached one: one checkpoint behind
  the fault, recorded by the same step, is enough.  Stacking is exact
  because every kernel is row-invariant: row *i* of a batched forward is the
  forward of row *i* alone.  Rows are the first axis of an array, or the
  items of a list with one non-array item per row (a detector's output, one
  detection per image; see :func:`batched`).

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

Chain and containment are properties of the topology, not of the batch
size, so campaigns trace with the first sample of their first batch (two
one-sample forwards per model object, the trace and its replay, instead of
two campaign-sized ones, plus a two-sample forward that tells whether the
plan stacks) and run the plan at any batch size afterwards.  A
campaign keeps the plan it accepted in the model's record
(:mod:`repro.nn.record`), so the next campaign on the same object does not
trace again; a plan holds its model only weakly, so the record never keeps
the model alive.  :meth:`ForwardPlan.trace` itself always traces.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    #: whether the output holds the input batch's rows (see :func:`batched`)
    batched: bool = False


def batched(value, rows: int) -> bool:
    """Whether ``value`` holds ``rows`` batch rows, one per index of its first axis.

    An array with ``rows`` entries on its first axis does, and so does a list
    of ``rows`` items none of which is an array (a detector's list of
    :class:`~repro.models.detection.Detection`, one per image).  A list of
    arrays (a feature pyramid, ``[x]``) holds whole-batch values, not rows.
    """
    if isinstance(value, np.ndarray):
        return value.ndim > 0 and len(value) == rows
    return (
        isinstance(value, list)
        and len(value) == rows
        and not any(isinstance(item, np.ndarray) for item in value)
    )


def _preorder(call: _TraceCall) -> list[_TraceCall]:
    """``call`` and every module call below it, in call order."""
    calls, pending = [], [call]
    while pending:
        current = pending.pop()
        calls.append(current)
        pending.extend(reversed(current.children))
    return calls


def _hooked(model: Module, pre_hook, post_hook) -> list:
    """Register ``pre_hook`` and ``post_hook`` once on every module of ``model``."""
    handles = []
    seen: set[int] = set()
    for module in model.modules():
        if id(module) in seen:
            continue
        seen.add(id(module))
        handles.append(module.register_forward_pre_hook(pre_hook))
        handles.append(module.register_forward_hook(post_hook))
    return handles


def _holds_rows(model: Module, example_input, root_call: _TraceCall) -> bool:
    """Whether every module call of a pass outputs the batch's rows, at two batch sizes.

    Monitors scan the output of every leaf module a pass calls, including
    those inside an atomic segment, and split a stacked pass's outputs by
    row: a module called per image inside a segment (a two-stage detector's
    per-proposal classifier) gives outputs whose rows are no batch rows.
    One batch size cannot tell those apart from batch rows when their count
    happens to equal it (one proposal per image in a one-image trace), so
    the pass runs again over one more row, the first one repeated: it must
    make the same module calls in the same order, each again holding the
    batch's rows.  A per-image output's length does not follow the batch.
    """
    traced = _preorder(root_call)
    if not all(call.batched for call in traced):
        return False
    rows = len(example_input) + 1
    probed: list[list] = []
    open_calls: list[list] = []

    def pre_hook(module, inputs):
        open_calls.append([id(module), False])
        probed.append(open_calls[-1])

    def post_hook(module, inputs, output):
        open_calls.pop()[1] = batched(output, rows)

    handles = _hooked(model, pre_hook, post_hook)
    try:
        model(np.concatenate((example_input, example_input[:1])))
    except Exception:
        return False
    finally:
        for handle in handles:
            handle.remove()
    return [module for module, _ in probed] == [id(call.module) for call in traced] and all(
        holds for _, holds in probed
    )


def _snapshot(value):
    """Owned copy of a boundary value (for cache entries that outlive a step)."""
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    return value


def _join(stack, value):
    """``value``'s rows appended to those of ``stack`` (an array or a list of rows)."""
    if stack is None:
        return value
    if isinstance(value, list):
        return [*stack, *value]
    return np.concatenate((stack, value))


def _owned_rows(value, start: int, stop: int):
    """Rows ``[start, stop)`` of a batched value, owned: a copy of an array's, a new list."""
    if isinstance(value, np.ndarray):
        return np.array(value[start:stop], copy=True)
    return value[start:stop]


def take_rows(array: np.ndarray, rows) -> np.ndarray:
    """The batch rows ``rows`` of ``array``, in that order (a view for one row)."""
    if len(rows) == 1:
        return array[rows[0] : rows[0] + 1]
    return array[list(rows)]


class StackedPass(NamedTuple):
    """One pass of :meth:`ForwardPlan.resume_stack`."""

    #: the boundary the pass joins the stack at
    start: int
    #: its activation there, the boundary value ``a_start``
    activation: object
    #: the recorded golden pass it may rejoin (anything with ``boundaries``
    #: and ``output``, e.g. a golden cache entry; ``None``: it runs to the end)
    golden: object
    #: the rows of the golden pass ``activation`` holds, when it is a
    #: sub-batch of them (see :func:`take_rows`; ``None``: all)
    rows: tuple[int, ...] | None = None


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
        stackable: bool = False,
    ):
        # Weakly: a plan kept in its model's record must not keep the model alive.
        self._model = weakref.ref(model)
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
        # Execution backend (see repro.nn.ir.make_executor).  The constructor
        # trusts the name; trace() validates non-default executors bitwise
        # against the traced output before handing out the plan.
        self.executor_name = executor
        self._executor = make_executor(executor, self)
        #: Whether every boundary, the output and every module output of the
        #: traced pass, and of a pass over one more row, held the batch's rows
        #: (:func:`batched`), so that passes of several inputs may share one
        #: stacked forward (:meth:`resume_stack`).
        self.stackable = stackable
        # Module name -> weight_span, filled on first use.
        self._weight_spans: dict[str, tuple[int, int] | None] = {}

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
                activation it sees until the pass ends.  Whether the plan
                stacks is also checked on a forward of one row more (the
                first one repeated), which pins nothing.
            executor: execution backend name (see
                :func:`repro.nn.ir.make_executor`; campaigns use the
                default, the module path).  A non-default
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

        def build(executor_name: str, stackable: bool = False) -> "ForwardPlan":
            return cls(
                model,
                segments,
                segment_names,
                valid=True,
                executor=executor_name,
                executed_in=executed_in,
                stackable=stackable,
            )

        valid = len(segments) > 1
        if valid:
            plan = build("module", _holds_rows(model, example_input, root_call))
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
                candidate = build(executor, plan.stackable)
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

        rows = len(example_input) if isinstance(example_input, np.ndarray) else None

        def post_hook(module, inputs, output):
            call = stack.pop()
            call.out_id = id(output)
            call.batched = batched(output, rows)
            pinned.append(output)
            return None

        handles = _hooked(model, pre_hook, post_hook)
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
    def model(self) -> Module | None:
        """The traced model (``None`` once it is gone: a plan does not keep it alive)."""
        return self._model()

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
        lets :meth:`resume_stack` compare a faulty pass with its golden one
        there.  Equal to :meth:`segment_for` unless atomic segments share the
        module.
        """
        return self._executed_in.get(module_name, (None, None))[1]

    def weight_span(self, module_name: str) -> tuple[int, int] | None:
        """Segments ``(first, last)`` that run a module holding ``module_name``'s parameters.

        A weight fault corrupts the parameter array in place, so it acts
        wherever a module registering a parameter that shares memory with it
        runs: ``module_name`` itself and every module whose weights are tied
        to its own.  Without ties, :meth:`segment_for` and
        :meth:`last_segment_for`.  ``None`` for a module the trace never saw
        called.  Read off the model's parameters on first use per name.
        """
        if module_name not in self._weight_spans:
            self._weight_spans[module_name] = self._tied_span(module_name)
        return self._weight_spans[module_name]

    def _tied_span(self, module_name: str) -> tuple[int, int] | None:
        span = self._executed_in.get(module_name)
        model = self._model()
        if span is None or model is None:
            return span
        owned = [param.data for param in model.get_submodule(module_name).parameters()]
        first, last = span
        for name, param in model.named_parameters():
            holder = self._executed_in.get(name.rpartition(".")[0])
            if holder is None:
                continue
            if any(np.may_share_memory(param.data, array) for array in owned):
                first, last = min(first, holder[0]), max(last, holder[1])
        return first, last

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def resume(self, start: int, activation):
        """Execute the segments ``[start, ...)`` from a boundary activation.

        ``activation`` must be the (golden) boundary value ``a_start`` — the
        input of segment ``start``.  ``resume(0, x)`` is a full pass.
        """
        return self.run_range(start, len(self.segments), activation)

    def run_range(self, start: int, stop: int, activation):
        """Execute the segments ``[start, stop)`` and return the boundary value ``a_stop``."""
        if not 0 <= start <= stop <= len(self.segments):
            raise IndexError(
                f"segment range [{start}, {stop}) outside plan of {len(self.segments)} segments"
            )
        return self._executor.run_range(start, stop, activation)

    def resume_stack(
        self,
        passes: list[StackedPass],
        regroup: Callable[[list[int], list[int]], None] | None = None,
    ) -> list[tuple[object, int | None]]:
        """Run the suffixes of ``passes`` to the end, as one stacked batch.

        Pass *i* joins the stack at its boundary ``passes[i].start`` with its
        activation there, and its rows run every later segment stacked with
        those of the other passes.  At every boundary its golden pass holds a
        checkpoint of, its rows are compared with the checkpoint's (those of
        ``rows``, when the pass holds a sub-batch): rows that reproduce it
        byte for byte leave the stack, and the pass returns
        ``golden.output`` itself, since every later segment would see the
        golden input under the same weights.  A pass without golden pass
        runs to the end.  Boundaries before ``start`` are never compared, so
        a pass joins behind every segment that differs from the golden model.

        Row *i* of a batched forward is the forward of row *i* alone, so
        each pass gets the bytes it would get run on its own; with more than
        one pass the plan must be :attr:`stackable`: a list of rows (a
        detector's detections) is joined by concatenation and cut by
        slicing like an array.  A lone pass may hold anything.  Boundaries
        that are not arrays are never compared.

        Args:
            passes: the passes to run.
            regroup: called before the stack runs a segment range with the
                indices of the passes in the stack, in row order, and how
                many rows each holds (to attribute what the rows raise).

        Returns:
            Per pass, ``(output, rejoined_at)``: ``golden.output`` and the
            boundary it rejoined at, or its rows of the stack's output and
            ``None``.
        """
        stop = len(self.segments)
        results: list = [None] * len(passes)
        pending = sorted(range(len(passes)), key=lambda index: passes[index].start, reverse=True)
        live: list[int] = []
        sizes: list[int] = []
        stack = None
        at = passes[pending[-1]].start if pending else stop
        while True:
            while pending and passes[pending[-1]].start == at:
                index = pending.pop()
                activation = passes[index].activation
                stack = _join(stack, activation)
                live.append(index)
                sizes.append(len(activation) if isinstance(activation, (np.ndarray, list)) else 0)
            # Arrays only: what else a boundary may hold (a detector's list of
            # feature maps) is never taken for the golden value.
            if at < stop and isinstance(stack, np.ndarray):
                stack = self._rejoin(passes, at, stack, live, sizes, results)
            if at == stop or not (live or pending):
                break
            following = passes[pending[-1]].start if pending else stop
            if live:
                following = min(
                    (
                        following,
                        *(
                            index
                            for member in live
                            if passes[member].golden is not None
                            for index in passes[member].golden.boundaries
                            if at < index < following
                        ),
                    )
                )
                if regroup is not None:
                    regroup(list(live), list(sizes))
                # The stack's tail is a suffix-only pass like any other.
                if following == stop:
                    stack = self.resume(at, stack)
                else:
                    stack = self.run_range(at, following, stack)
            at = following
        if len(live) == 1:
            results[live[0]] = (stack, None)
        elif live:
            offsets = np.cumsum((0, *sizes))
            for member, first, end in zip(live, offsets, offsets[1:]):
                results[member] = (stack[first:end], None)
        return results

    @staticmethod
    def _rejoin(passes, at: int, stack: np.ndarray, live: list, sizes: list, results: list):
        """Take the passes whose rows equal their golden checkpoint ``at`` out of the stack.

        ``live`` and ``sizes`` are updated in place; returns the rows left
        (``None``: none).
        """
        kept: list[np.ndarray] = []
        offset = 0
        members = list(zip(live, sizes))
        live.clear()
        sizes.clear()
        for member, size in members:
            rows = stack[offset : offset + size] if len(members) > 1 else stack
            offset += size
            golden = passes[member].golden
            expected = None if golden is None else golden.boundaries.get(at)
            if expected is not None:
                if passes[member].rows is not None:
                    expected = take_rows(expected, passes[member].rows)
                if _bitwise_equal(rows, expected):
                    results[member] = (golden.output, at)
                    continue
            live.append(member)
            sizes.append(size)
            kept.append(np.arange(offset - size, offset))
        if len(live) == len(members):
            return stack
        return stack[np.concatenate(kept)] if kept else None

    def run_prefix(self, x, stop: int):
        """Execute segments ``[0, stop)`` and return the boundary value ``a_stop``."""
        return self.run_range(0, stop, x)

    def run_recording(
        self,
        x,
        boundaries="all",
        seed: tuple[int, object] | None = None,
        sizes: list[int] | None = None,
    ):
        """Run a full pass while checkpointing boundary activations.

        Args:
            x: the model input (boundary 0; never recorded).
            boundaries: ``"all"`` or an iterable of boundary indices in
                ``[1, num_segments)`` to checkpoint, each as an owned copy
                (safe to cache beyond the current step).
            seed: ``(index, value)``, the boundary value ``a_index`` known
                beforehand.  The pass then runs only the segments up to the
                last wanted boundary below ``index`` and resumes at ``index``
                from ``value``; the segments in between are not run, so a
                monitor sees none of their activations.
            sizes: ``x`` stacks several inputs, of these many rows each.
                ``boundaries`` then holds one iterable per input, and each
                input's rows of a checkpoint are copied out when the pass
                reaches it, so the stacked checkpoint is never held.  A list
                of rows (see :func:`batched`) is cut by slicing.

        Returns:
            Tuple ``(output, checkpoints)`` where ``checkpoints`` maps
            boundary index to activation.  With ``sizes``, both are lists
            with one element per input: its rows of the output and its
            checkpoints, as owned copies.
        """
        if sizes is None:
            wanted = None if boundaries == "all" else set(boundaries)
            checkpoints: dict[int, object] = {}

            def record(index, value):
                checkpoints[index] = _snapshot(value)

        else:
            boundaries = [set(indices) for indices in boundaries]
            wanted = set().union(*boundaries)
            offsets = np.cumsum((0, *sizes))
            checkpoints = [{} for _ in sizes]
            rows = list(zip(offsets, offsets[1:], boundaries, checkpoints))

            def record(index, value):
                for start, stop, indices, taken in rows:
                    if index in indices:
                        taken[index] = _owned_rows(value, start, stop)

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
                record(index, value)
            if index in skipped:
                continue
            value = self._executor.run_segment(index, value)
        if sizes is not None:
            value = [_owned_rows(value, start, stop) for start, stop, _, _ in rows]
        return value, checkpoints
