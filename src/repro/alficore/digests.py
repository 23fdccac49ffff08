"""Shared content-digest helpers.

Content addressing shows up in three load-bearing places of the campaign
engine — the configuration guard of committed shard directories, the golden
cache's spillover file names and the model identity (and custom monitors)
in every golden cache key — and is the foundation of the campaign store's
run IDs.  All of
them need the same two properties:

* **stability** — the digest of equal content is identical across processes,
  python versions and dict insertion orders (mappings are serialized with
  sorted keys);
* **sensitivity** — any content change (a scenario field, a weight byte, a
  cache-key element) changes the digest.

This module is the single implementation those call sites share.  The
digests are sha1-based: they guard against *accidental* mismatches (stale
spillover, config drift between runs), not against adversaries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types
from typing import Any, Sequence

import numpy as np

#: hex digits kept by the short-form digests (cache keys, run IDs,
#: fingerprints).  16 hex digits = 64 bits: collisions among the handful of
#: runs/models sharing one store or cache directory are out of reach.
SHORT_DIGEST_LENGTH = 16


def config_digest(config: Any) -> str:
    """Stable full-length digest of a JSON-serialisable configuration.

    Mappings are serialized with sorted keys, so two configurations with the
    same content but different insertion order digest identically.
    Non-JSON-serialisable leaves fall back to ``str()`` (paths, numpy
    scalars).
    """
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def key_digest(key: tuple) -> str:
    """Full-length digest of a structured cache key (its ``repr``).

    Used for filesystem names of keyed artifacts (golden-cache spillover
    files): the key tuples mix strings, ints and nested tuples, and their
    ``repr`` is deterministic for those types.
    """
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()


def bytes_digest(data: bytes, length: int = SHORT_DIGEST_LENGTH) -> str:
    """Short digest of raw bytes (e.g. a batch's image content)."""
    return hashlib.sha1(data).hexdigest()[:length]


#: A module's attributes that hold no plain value: its registered children,
#: parameters and buffers (digested on their own) and its hooks (a
#: campaign's come and go; they are not the model's).
_NOT_PLAIN = frozenset(
    {"_parameters", "_buffers", "_modules", "_forward_hooks", "_forward_pre_hooks"}
)


def model_fingerprint(model: Any, length: int = SHORT_DIGEST_LENGTH) -> str:
    """Short digest of everything a model's forward reads: the model's identity.

    It digests the parameters, then the buffers (names and raw bytes), then
    every module, root first: its qualified name, its type and its plain
    attributes (``vars()`` without registered children, parameters, buffers
    and hooks) by :func:`state_digest`'s rule, in which a back-reference to
    a module of the same model stands for its qualified name.  So two models
    fingerprint equally exactly when they have the same state: weights and
    running statistics (one model before and after head fitting differs),
    module types (a ``ReLU`` swapped for a ``Tanh``) and the settings a
    forward reads (a detector's ``score_threshold``), while a reconstruction
    with identical state fingerprints identically.  Compute it while the
    model is unpatched — an active fault group would leak into the digest.

    ``model`` must provide ``named_parameters()`` yielding ``(name, param)``
    pairs whose ``param.data`` exposes ``tobytes()``, and ``named_modules()``
    yielding ``(name, module)`` pairs, the root first under ``""``; it may
    provide ``named_buffers()`` yielding ``(name, array)`` pairs (the
    ``repro.nn`` module protocol).

    Raises:
        TypeError: an attribute is outside the rule (a function, a dict, an
            object of another kind): the model has no identity, since two
            models could differ there unseen.
    """
    digest = hashlib.sha1()
    for name, param in model.named_parameters():
        digest.update(name.encode("utf-8"))
        digest.update(param.data.tobytes())
    for name, buffer in getattr(model, "named_buffers", tuple)():
        digest.update(name.encode("utf-8"))
        digest.update(buffer.tobytes())
    modules = list(model.named_modules())
    names = {id(module): name for name, module in modules}
    for name, module in modules:
        digest.update(f"{name}:{_type_name(module)};".encode())
        state = {key: value for key, value in vars(module).items() if key not in _NOT_PLAIN}
        _feed_attributes(digest, state, names, name or type(module).__qualname__)
    return digest.hexdigest()[:length]


#: Callables whose behaviour lies outside their ``vars()``.
_OPAQUE = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    functools.partial,
)


def state_digest(objects: Sequence[Any], length: int = SHORT_DIGEST_LENGTH) -> str:
    """Short digest of the state of ``objects`` (custom monitors), ``"none"`` without any.

    Each object is digested by its type and ``vars()``, in order.  An
    attribute value is in the rule if it is a number, string, bool or
    ``None``; a numpy scalar or array; a tuple or list of these; or an
    ``np.random.Generator`` (by its bit generator's state).

    Raises:
        TypeError: an object or attribute is outside the rule — a function,
            a lambda or closure, a method, a ``functools.partial`` (their
            behaviour is not in ``vars()``), a dict, anything else.
    """
    if not objects:
        return "none"
    digest = hashlib.sha1()
    for position, item in enumerate(objects):
        where = f"{type(item).__qualname__} #{position}"
        if isinstance(item, _OPAQUE) or not hasattr(item, "__dict__"):
            raise TypeError(f"{where}: its state is not in vars()")
        digest.update(f"{_type_name(item)};".encode())
        _feed_attributes(digest, vars(item), {}, where)
    return digest.hexdigest()[:length]


def _type_name(item: Any) -> str:
    return f"{type(item).__module__}.{type(item).__qualname__}"


def _feed_attributes(
    digest: Any, state: dict[str, Any], names: dict[int, str], owner: str
) -> None:
    """Feed the attributes ``state`` of ``owner`` to ``digest``, sorted by name."""
    for key in sorted(state):
        digest.update(f"{key}=".encode())
        try:
            _feed(digest, state[key], names)
        except TypeError as error:
            raise TypeError(f"{owner}.{key}: {error}") from None


def _feed(digest: Any, value: Any, names: dict[int, str]) -> None:
    """Feed one plain value to ``digest``; ``names`` maps module ids to qualified names."""
    if value is None or isinstance(value, (bool, int, float, str)):
        digest.update(f"{type(value).__qualname__}:{value!r};".encode())
    elif isinstance(value, (np.ndarray, np.generic)):
        array = np.ascontiguousarray(value)
        if array.dtype.hasobject:
            raise TypeError("an object array is outside the identity rule")
        digest.update(f"{type(value).__qualname__}:{array.dtype.str}{array.shape};".encode())
        digest.update(array.tobytes())
    elif isinstance(value, (tuple, list)):
        digest.update(f"{type(value).__qualname__}{len(value)}(".encode())
        for item in value:
            _feed(digest, item, names)
        digest.update(b")")
    elif isinstance(value, np.random.Generator):
        state = json.dumps(value.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)
        digest.update(f"Generator:{state};".encode())
    elif id(value) in names:
        digest.update(f"module:{names[id(value)]};".encode())
    else:
        raise TypeError(f"a {type(value).__qualname__} is outside the identity rule")
