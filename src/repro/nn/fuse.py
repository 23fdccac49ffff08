"""Op fusion and planned buffer reuse for forward plans.

Builds on the segment IR of :mod:`repro.nn.ir`: the ops of a ``(start,
stop)`` segment range are concatenated and grouped into fused nodes —

* :class:`ConvActNode`: conv2d/linear with its bias folded back into the
  functional kernel, plus any trailing elementwise run applied in place on
  the fresh conv output;
* :class:`ChainNode`: a maximal run of elementwise ops executed as one pass
  over a single buffer (in-place where the op has an ``out=`` form, see
  ``_INPLACE_EMITS``);
* :class:`SingleOpNode` / :class:`CallModuleNode` for everything else.

**Buffer plan.**  Values flow through the node list with a tiny liveness
state: *external* (caller-owned — never written in place, so golden-cache
boundary activations can be resumed from safely), *owned* (fresh output of
this run, free to overwrite) and *in-slot* (living in a reusable arena
buffer).  An elementwise chain whose input is external writes into an
arena slot; every value a program returns is escaped out of the arena, so
slots never outlive a run.  The arena keeps one grow-only byte buffer per
slot, giving O(peak)-sized reuse instead of the interpreter's
O(sum-of-activations) allocation.

**Bit-exactness contract.**  Every fused kernel is either the same ufunc
the functional path calls (with ``out=`` supplied — results are identical
by definition) or an operator reordering proven bit-preserving
(``docs/ir.md``).  Ops with rewrites that are *not* bit-safe (the
branch-masked sigmoid, leaky-relu's NaN-payload hazard) stay on their
allocating functional kernels inside chains.  The trace-time validation in
``ForwardPlan.trace`` additionally replays the whole model and compares
byte-for-byte before the fused executor is trusted.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import functional as F
from repro.nn.ir import (
    ALIAS_KINDS,
    ELEMENTWISE_KINDS,
    PlanExecutor,
    lower_segment,
    module_blocked,
)

__all__ = [
    "SlotArena",
    "ConvActNode",
    "ChainNode",
    "SingleOpNode",
    "CallModuleNode",
    "build_program",
    "FusedExecutor",
]


# ---------------------------------------------------------------------------
# in-place elementwise kernels
# ---------------------------------------------------------------------------
def _emit_relu(module, x, out):
    np.maximum(x, 0.0, out=out)


def _emit_tanh(module, x, out):
    np.tanh(x, out=out)


def _emit_bias_add(module, x, out):
    bias = module.bias.data
    if x.ndim == 2:
        np.add(x, bias, out=out)
    else:
        np.add(x, bias.reshape((1, -1) + (1,) * (x.ndim - 2)), out=out)


def _emit_batchnorm2d(module, x, out):
    # The ufunc sequence of F.batch_norm2d (which runs it on a buffer of its
    # own), with the chain's buffer as out=.
    mean = module._buffers["running_mean"].reshape(1, -1, 1, 1)
    var = module._buffers["running_var"].reshape(1, -1, 1, 1)
    np.subtract(x, mean, out=out)
    np.divide(out, np.sqrt(var + module.eps), out=out)
    np.multiply(out, module.weight.data.reshape(1, -1, 1, 1), out=out)
    np.add(out, module.bias.data.reshape(1, -1, 1, 1), out=out)


# Elementwise ops with a bit-identical out= form.  sigmoid (branch-masked
# fancy indexing) and leaky_relu (NaN-payload hazard in any in-place
# rewrite) intentionally stay on their allocating functional kernels.
_INPLACE_EMITS = {
    "relu": _emit_relu,
    "tanh": _emit_tanh,
    "bias_add": _emit_bias_add,
    "batchnorm2d": _emit_batchnorm2d,
}


class SlotArena:
    """Grow-only reusable buffers backing the planned chain outputs.

    One flat byte buffer per slot key, viewed and reshaped per use, so a
    slot serves activations of varying shapes/batch sizes without
    reallocating (buffers only grow to the peak byte size seen).
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def view(self, key, shape):
        """A float32 view of slot ``key`` shaped ``shape`` (allocating on growth)."""
        nbytes = 4 * math.prod(shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = np.empty(nbytes, dtype=np.uint8)
            self._buffers[key] = buffer
        return buffer[:nbytes].view(np.float32).reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Drop all slot buffers."""
        self._buffers = {}


# ---------------------------------------------------------------------------
# fused nodes
# ---------------------------------------------------------------------------
class _FusedNode:
    """Base node: a group of ops whose member modules never split.

    ``execute`` receives and returns ``(value, owned, in_slot)`` — the
    liveness state of the current boundary value.  When any member module
    is hook-blocked the executor calls :meth:`fallback` instead, which
    replays the ordinary module calls (hooks fire, output is exact).
    """

    __slots__ = ("modules", "is_last", "slot_key")

    def __init__(self, modules):
        self.modules = modules
        self.is_last = False
        self.slot_key = None

    def blocked(self) -> bool:
        return any(module_blocked(module) for module in self.modules)

    def fallback(self, value):
        for module in self.modules:
            value = module(value)
        return value

    def execute(self, value, owned, in_slot, executor):
        raise NotImplementedError


def _dedup_modules(ops):
    modules = []
    for op in ops:
        if not modules or modules[-1] is not op.module:
            modules.append(op.module)
    return modules


class ConvActNode(_FusedNode):
    """conv2d/linear (+bias) with a trailing elementwise run fused in place."""

    __slots__ = ("conv_op", "with_bias", "act_ops")

    def __init__(self, conv_op, with_bias, act_ops):
        super().__init__(_dedup_modules([conv_op] + act_ops))
        self.conv_op = conv_op
        self.with_bias = with_bias
        self.act_ops = act_ops

    def execute(self, value, owned, in_slot, executor):
        """Run conv/linear with fused bias, then the trailing chain in place."""
        module = self.conv_op.module
        bias = module.bias.data if self.with_bias else None
        if self.conv_op.kind == "conv2d":
            value = F.conv2d(
                value, module.weight.data, bias, module.stride, module.padding, module.groups
            )
        else:
            value = F.linear(value, module.weight.data, bias)
        executor.alloc_bytes += value.nbytes
        value = _run_chain_on_owned(self.act_ops, value, executor)
        return value, True, False


def _run_chain_on_owned(ops, value, executor):
    """Apply elementwise ops to a buffer this run owns (in place where safe)."""
    for op in ops:
        emit = _INPLACE_EMITS.get(op.kind)
        if emit is not None and value.dtype == np.float32:
            emit(op.module, value, value)
        else:
            value = op.run(value)
            executor.alloc_bytes += value.nbytes
    return value


class ChainNode(_FusedNode):
    """A maximal elementwise run executed as one pass over one buffer."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        super().__init__(_dedup_modules(ops))
        self.ops = ops

    def execute(self, value, owned, in_slot, executor):
        """Run the elementwise chain over one buffer per the liveness state."""
        for op in self.ops:
            emit = _INPLACE_EMITS.get(op.kind)
            if emit is None or not isinstance(value, np.ndarray) or value.dtype != np.float32:
                value = op.run(value)
                owned, in_slot = True, False
                executor.alloc_bytes += value.nbytes
                continue
            if owned and not (in_slot and self.is_last):
                # Overwrite a buffer we own; slot values a program would
                # return are moved to a fresh buffer instead (below).
                emit(op.module, value, value)
                continue
            if self.is_last:
                out = np.empty(value.shape, np.float32)
                executor.alloc_bytes += out.nbytes
                in_slot = False
            else:
                out = executor.arena.view(self.slot_key, value.shape)
                in_slot = True
            emit(op.module, value, out)
            value = out
            owned = True
        return value, owned, in_slot


class SingleOpNode(_FusedNode):
    """One non-elementwise op (pooling, softmax, view ops, conv3d)."""

    __slots__ = ("op",)

    def __init__(self, op):
        super().__init__([op.module])
        self.op = op

    def execute(self, value, owned, in_slot, executor):
        """Run the op; alias kinds propagate the input's liveness flags."""
        value = self.op.run(value)
        if self.op.kind in ALIAS_KINDS:
            # The output is (a view of) the input: propagate its liveness.
            return value, owned, in_slot
        if isinstance(value, np.ndarray):
            executor.alloc_bytes += value.nbytes
        return value, True, False


class CallModuleNode(_FusedNode):
    """Opaque segment: an ordinary module call (atomic residual blocks etc.)."""

    __slots__ = ()

    def blocked(self) -> bool:
        """Never blocked: the node is the module call, hooks fire either way."""
        # The node *is* a module call; hooks fire either way.
        return False

    def execute(self, value, owned, in_slot, executor):
        """Call the module; its output is externally owned (may be a view)."""
        return self.modules[0](value), False, False


def build_program(segment_items) -> list:
    """Group the ops of a segment range into fused nodes.

    Args:
        segment_items: iterable of ``(module, ops_or_none)`` pairs in chain
            order; ``None`` ops mark opaque segments.

    Returns:
        The node list.  Module boundaries never split across nodes, so a
        hook-blocked node can fall back to plain module calls bit-exactly.
    """
    ops: list = []
    nodes: list = []

    def flush_ops():
        i = 0
        while i < len(ops):
            op = ops[i]
            if op.kind in ("conv2d", "matmul"):
                j = i + 1
                with_bias = False
                if j < len(ops) and ops[j].kind == "bias_add" and ops[j].module is op.module:
                    with_bias = True
                    j += 1
                acts = []
                while j < len(ops) and ops[j].kind in ELEMENTWISE_KINDS:
                    acts.append(ops[j])
                    j += 1
                nodes.append(ConvActNode(op, with_bias, acts))
                i = j
            elif op.kind in ELEMENTWISE_KINDS:
                j = i
                while j < len(ops) and ops[j].kind in ELEMENTWISE_KINDS:
                    j += 1
                nodes.append(ChainNode(ops[i:j]))
                i = j
            else:
                nodes.append(SingleOpNode(op))
                i += 1
        ops.clear()

    for module, segment_ops in segment_items:
        if segment_ops is None:
            flush_ops()
            nodes.append(CallModuleNode([module]))
        else:
            ops.extend(segment_ops)
    flush_ops()

    for index, node in enumerate(nodes):
        node.slot_key = index
    if nodes:
        nodes[-1].is_last = True
    return nodes


class FusedExecutor(PlanExecutor):
    """Executes compiled fused programs with planned buffer reuse.

    Programs are compiled lazily per ``(start, stop)`` range and cached, so
    every ``resume(k, a_k)`` entry point of a campaign gets its own fused
    suffix program.  All programs share one :class:`SlotArena`; returned
    values are always escaped out of the arena, so reuse across programs
    and steps is safe.
    """

    name = "fused"

    def __init__(self, plan):
        super().__init__(plan)
        self.segment_ops = [
            lower_segment(module, name)
            for module, name in zip(plan.segments, plan.segment_names)
        ]
        self._programs: dict = {}
        self.arena = SlotArena()
        # Fresh activation bytes allocated (slot writes excluded); the
        # planned footprint is alloc_bytes + arena.nbytes.
        self.alloc_bytes = 0

    def reset_stats(self) -> None:
        """Zero the allocation accounting (the arena keeps its buffers)."""
        self.alloc_bytes = 0

    def program(self, start: int, stop: int) -> list:
        """The (cached) fused node program for segments ``[start, stop)``."""
        key = (start, stop)
        nodes = self._programs.get(key)
        if nodes is None:
            items = [
                (self.plan.segments[index], self.segment_ops[index])
                for index in range(start, stop)
            ]
            nodes = build_program(items)
            self._programs[key] = nodes
        return nodes

    def _execute(self, nodes, value):
        owned = False
        in_slot = False
        for node in nodes:
            if node.blocked():
                value = node.fallback(value)
                owned, in_slot = False, False
            else:
                value, owned, in_slot = node.execute(value, owned, in_slot, self)
        if in_slot and isinstance(value, np.ndarray):
            # Never leak arena memory to the caller: the next run would
            # overwrite it (golden-cache boundaries must stay stable).
            value = value.copy()
            self.alloc_bytes += value.nbytes
        return value

    def run_segment(self, index: int, value):
        return self._execute(self.program(index, index + 1), value)

    def run_range(self, start: int, stop: int, value):
        return self._execute(self.program(start, stop), value)
