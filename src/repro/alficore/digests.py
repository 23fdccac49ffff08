"""Shared content-digest helpers.

Content addressing shows up in three load-bearing places of the campaign
engine — the configuration guard of committed shard directories, the golden
cache's spillover file names and the weight fingerprint in every golden
cache key — and is the foundation of the campaign store's run IDs.  All of
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

import hashlib
import json
from typing import Any

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


def model_fingerprint(model: Any, length: int = SHORT_DIGEST_LENGTH) -> str:
    """Short digest of a model's state (names + raw parameter, then buffer bytes).

    The fingerprint distinguishes *states*, not just architectures: two
    equal-shaped models with different weights or batch-norm running
    statistics (or one model before/after head fitting) fingerprint
    differently, while a reconstruction with identical state fingerprints
    identically.  A model without buffers digests its parameters alone.
    Compute it while the model is unpatched — an active fault group would
    leak into the digest.

    ``model`` must provide ``named_parameters()`` yielding ``(name, param)``
    pairs whose ``param.data`` exposes ``tobytes()``, and may provide
    ``named_buffers()`` yielding ``(name, array)`` pairs (the ``repro.nn``
    module protocol).
    """
    digest = hashlib.sha1()
    for name, param in model.named_parameters():
        digest.update(name.encode("utf-8"))
        digest.update(param.data.tobytes())
    for name, buffer in getattr(model, "named_buffers", tuple)():
        digest.update(name.encode("utf-8"))
        digest.update(buffer.tobytes())
    return digest.hexdigest()[:length]
