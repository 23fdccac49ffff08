"""What the engine has learned about one model object: :class:`ModelRecord`.

Two facts about a model cost a forward pass to learn and depend on nothing a
campaign varies: its :class:`~repro.nn.forward_plan.ForwardPlan` (a trace and
one replay) and the output shape of every layer (a probe pass).  A
sweep runs one campaign per grid point on one model object, and each would
learn them again.  The record keeps them per model object, so the first
campaign on a model pays for them and the next ones look them up:

* ``plan`` — the last plan a campaign accepted, with the key it was learned
  under (see :meth:`~repro.alficore.campaign.CampaignCore._plan_for`);
* ``shapes`` — module name → output shape, per batch size and per-sample
  input shape, for the module :func:`structure` the record was learned on;
  written by the fault injector's zero-input probe and by the head fit's
  calibration pass;
* ``head_features`` — what fitting the model's classifier head computed
  (:class:`~repro.alficore.goldencache.HeadFeatures`).

Every entry is keyed by what it depends on, so a stale one is a miss, never
a wrong answer.  Records are keyed by the model object itself, weakly: a
record goes with its model and never keeps it alive (nothing in it refers to
the root module), and a copy of a model — ``clone()``, a deep copy, an
unpickled one — is another object and starts with an empty record.  A forked
process inherits the records of its parent's objects.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.nn.module import Module

__all__ = ["ModelRecord", "model_record", "output_shapes", "structure"]


@dataclass(eq=False)
class ModelRecord:
    """What has been learned about one model object (see the module docstring)."""

    #: ``(key, plan)``: the last forward plan accepted for the model
    plan: tuple[tuple, object] | None = None
    #: the :func:`structure` the ``shapes`` were learned on
    layout: tuple = ()
    #: ``(batch size, per-sample input shape)`` → module name → output shape
    #: (``None``: the module was not called)
    shapes: dict[tuple, dict[str, tuple[int, ...] | None]] = field(default_factory=dict)
    #: the head fit's features of the model
    head_features: object = None


_RECORDS: "weakref.WeakKeyDictionary[Module, ModelRecord]" = weakref.WeakKeyDictionary()


def model_record(model: Module) -> ModelRecord:
    """The record of this model object (an empty one the first time)."""
    record = _RECORDS.get(model)
    if record is None:
        record = _RECORDS[model] = ModelRecord()
    return record


def structure(model: Module) -> tuple:
    """The root's type and every module below it as ``(qualified name, module, type)``.

    The modules themselves, not their ``id``: a key holding them keeps them
    alive, so a module that replaces a freed one at the same address can
    never pass for it.  The root is left out, since a record that held its
    own model would keep it alive.
    """
    return (type(model),) + tuple(
        (name, module, type(module)) for name, module in model.named_modules() if name
    )


def output_shapes(
    model: Module, batch_size: int, input_shape: tuple[int, ...]
) -> dict[str, tuple[int, ...] | None]:
    """The output shapes learned for ``model`` at that input, as a live map passes add to.

    A map learned on another module structure (a submodule swapped, added
    or removed since) is dropped first.
    """
    record = model_record(model)
    layout = structure(model)
    if record.layout != layout:
        record.layout, record.shapes = layout, {}
    return record.shapes.setdefault((batch_size, tuple(input_shape)), {})
