"""Golden cache: one fault-free pass per batch of images.

Golden (fault-free) outputs are a pure function of the model weights and the
input batch — they do not depend on the epoch, the fault group or anything
else in the scenario.  Without a cache a multi-epoch campaign recomputes
them once per epoch per image, and a sweep once per grid point.  The
:class:`GoldenCache` stores, per batch of dataset images:

* the raw golden model output (and, in a separate lane, the hardened
  "resil" model's golden output);
* whether the golden pass was *clean* — its monitor saw no NaN, Inf or
  custom event — the one condition under which a faulty pass may skip
  segments behind it;
* checkpointed boundary activations of the golden forward plan — those a
  fault group can resume at — so a later faulty pass can resume mid-network
  without re-running the prefix, and stop at the first later checkpoint it
  reproduces byte for byte (tail reuse, counted as ``rejoins``);
* in memory only, whatever the campaign task derived from the golden output
  (``derived``: top-k and formatted record cells), so the golden half of a
  record is built once per image and goes when the entry goes.

Entries are keyed by ``(lane, weight fingerprint, kernel generation, dataset
image ids, batch digest, batch shape)`` — the digest covers the pixel bytes,
the shape how they are read.  Neither epoch nor scenario enters the key, so
one cache serves every epoch of a campaign and every grid point of a sweep
(:func:`repro.experiments.run_sweep` hands all points the same instance).
Memory is bounded by a configurable byte budget with LRU eviction; an
optional *spillover directory* persists entries as pickle files so separate
processes (the shards of a ``ShardedCampaignExecutor``, a resumed or extended
sweep) can reuse each other's golden passes.

One more piece of golden state lives here without being a cache entry:
:class:`HeadFeatures`, the final-layer inputs a head fit computed for its
calibration images (:func:`repro.models.pretrained.fit_classifier_head`
keeps one in the fitted model object's :mod:`repro.nn.record`; a cache-less
campaign seeds its golden passes with them).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.alficore.digests import bytes_digest, key_digest
from repro.nn.module import Module
from repro.nn.record import model_record

DEFAULT_BYTE_BUDGET = 256 * 2**20


def _value_nbytes(value) -> int:
    """Byte estimate of a cached value (exact for ndarray trees).

    Detection outputs are duck-typed the way
    :func:`repro.nn.forward_plan._bitwise_equal` compares them: an object
    with ``boxes`` counts its ``boxes``/``scores``/``labels`` arrays.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_value_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_value_nbytes(item) for item in value.values())
    if hasattr(value, "boxes"):
        return sum(
            np.asarray(getattr(value, name)).nbytes for name in ("boxes", "scores", "labels")
        )
    return 256  # conservative default for opaque objects


class GoldenCacheEntry:
    """One golden pass (output, boundary checkpoints, whether it was clean).

    ``clean`` is ``True`` when the lane's monitor saw no NaN, Inf or custom
    event during the pass (always, on a lane without monitor) and ``False``
    when it saw one or did not scan the pass.  ``derived`` is scratch space
    for the campaign task: values it computed from ``output`` alone, keyed
    by whatever else they depend on.  It is not part of :meth:`as_state`, so
    it is never spilled.
    """

    __slots__ = ("output", "boundaries", "clean", "derived")

    def __init__(self, output, boundaries=None, clean=False):
        self.output = output
        self.boundaries = dict(boundaries or {})
        self.clean = clean
        self.derived: dict = {}

    @property
    def nbytes(self) -> int:
        """Byte footprint used for budget accounting."""
        return _value_nbytes(self.output) + _value_nbytes(self.boundaries)

    def as_state(self) -> dict:
        """Picklable plain-dict form (inverse of :meth:`from_state`)."""
        return {"output": self.output, "boundaries": self.boundaries, "clean": self.clean}

    @classmethod
    def from_state(cls, state: dict) -> "GoldenCacheEntry":
        """Rebuild an entry from :meth:`as_state` output."""
        return cls(state["output"], state["boundaries"], state["clean"])


class GoldenCache:
    """Bounded LRU cache of golden passes with optional shared-file spillover.

    Args:
        byte_budget: in-memory budget; least-recently-used entries are
            evicted once it is exceeded (the most recent entry is always
            kept, even if it alone exceeds the budget).
        spill_dir: optional directory for persisted entries.  Writes are
            atomic (temp file + rename), so concurrent shard processes can
            share one directory without coordination; an in-memory miss
            falls back to loading the spilled entry.
    """

    def __init__(self, byte_budget: int = DEFAULT_BYTE_BUDGET, spill_dir: str | Path | None = None):
        if byte_budget <= 0:
            raise ValueError(f"byte_budget must be positive, got {byte_budget}")
        self.byte_budget = int(byte_budget)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._entries: "OrderedDict[tuple, GoldenCacheEntry]" = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        #: faulty passes that ended at a cached boundary (counted by the campaign)
        self.rejoins = 0
        self.evictions = 0
        self.spill_writes = 0
        self.spill_loads = 0
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------ #
    # lookup / insert
    # ------------------------------------------------------------------ #
    def get(self, key: tuple) -> GoldenCacheEntry | None:
        """Return the entry for ``key`` (memory first, then spillover)."""
        entry = self._entries.get(key)
        if entry is None and self.spill_dir is not None:
            entry = self._load_spilled(key)
            if entry is not None:
                self._insert(key, entry, spill=False)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def peek(self, key: tuple) -> GoldenCacheEntry | None:
        """Return the entry for ``key`` without counting the lookup or touching the LRU order.

        A spilled entry is loaded but not kept in memory: the lookup that
        counts, and inserts, is a later :meth:`get`.
        """
        entry = self._entries.get(key)
        if entry is None and self.spill_dir is not None:
            entry = self._load_spilled(key, count=False)
        return entry

    def put(self, key: tuple, output, boundaries=None, clean=False) -> GoldenCacheEntry:
        """Insert (or replace) the golden pass for ``key``."""
        entry = GoldenCacheEntry(output, boundaries, clean)
        self._insert(key, entry, spill=True)
        return entry

    def add_boundary(self, key: tuple, index: int, value) -> None:
        """Attach one more checkpointed boundary to an existing entry."""
        entry = self._entries.get(key)
        if entry is None:
            return
        self._nbytes -= entry.nbytes
        entry.boundaries[index] = value
        self._nbytes += entry.nbytes
        self._evict()
        if self.spill_dir is not None and key in self._entries:
            self._spill(key, entry)

    def _insert(self, key: tuple, entry: GoldenCacheEntry, spill: bool) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= old.nbytes
        self._entries[key] = entry
        self._nbytes += entry.nbytes
        self._evict()
        if spill and self.spill_dir is not None:
            self._spill(key, entry)

    def _evict(self) -> None:
        while self._nbytes > self.byte_budget and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= evicted.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------ #
    # spillover
    # ------------------------------------------------------------------ #
    def _spill_path(self, key: tuple) -> Path:
        return self.spill_dir / f"golden_{key_digest(key)}.pkl"

    def _spill(self, key: tuple, entry: GoldenCacheEntry) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_path(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.spill_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry.as_state(), handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.spill_writes += 1

    def _load_spilled(self, key: tuple, count: bool = True) -> GoldenCacheEntry | None:
        path = self._spill_path(key)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                entry = GoldenCacheEntry.from_state(pickle.load(handle))
            self.spill_loads += count
            return entry
        except FileNotFoundError:
            return None  # lost a race with a concurrent re-spill
        except Exception:
            # A truncated or corrupt spill file (worker killed mid-write on a
            # filesystem without atomic rename, disk full, external
            # tampering) is a cache miss, never a crash — and it is unlinked
            # so no later lookup trips over it again.
            self.corrupt_dropped += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Current in-memory footprint."""
        return self._nbytes

    def stats(self) -> dict:
        """Lookup, eviction and spill counters plus the in-memory size.

        Counters are per instance: lookups made by shard worker processes
        (each holds its own instance over the shared spill directory) are
        not included.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rejoins": self.rejoins,
            "evictions": self.evictions,
            "spill_writes": self.spill_writes,
            "spill_loads": self.spill_loads,
            "corrupt_dropped": self.corrupt_dropped,
            "entries": len(self._entries),
            "nbytes": self._nbytes,
            "byte_budget": self.byte_budget,
            "spill_dir": str(self.spill_dir) if self.spill_dir is not None else None,
        }


# ---------------------------------------------------------------------- #
# the head fit's features
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class HeadFeatures:
    """What fitting a classifier's head learned about its calibration images.

    ``features`` maps :func:`image_key` to the input the final ``Linear``
    (``head``) received for that image, for the images whose every leaf
    output row was finite during the fit — so a golden pass of them raises
    no NaN/Inf event before the head.  ``fingerprint`` is the model's
    :func:`~repro.alficore.digests.model_fingerprint` once the head was
    written: the features hold only while the model still has that state.
    """

    head: Module
    features: dict[tuple, np.ndarray]
    fingerprint: str

    def stacked(self, images: np.ndarray) -> np.ndarray | None:
        """The features of the batch ``images``, stacked (``None``: one is unknown)."""
        try:
            return np.stack([self.features[image_key(image)] for image in images])
        except KeyError:
            return None


def image_key(image: np.ndarray) -> tuple:
    """Content key of one image: digest of its bytes, its shape and dtype."""
    image = np.ascontiguousarray(image)
    return bytes_digest(image.tobytes()), image.shape, image.dtype.str


def head_features(model: Module) -> HeadFeatures | None:
    """The features the last head fit of this model object kept, if any.

    They live in the object's :func:`~repro.nn.record.model_record`: a deep
    copy or an unpickled model (a resil lane, a shard worker's) has none,
    since nothing vouches that its features equal the fitted object's.
    """
    return model_record(model).head_features
