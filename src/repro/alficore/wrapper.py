"""``ptfiwrap`` — the low-level integration wrapper.

This is the object the paper's Listing 1 revolves around.  The clone-free
campaign flow drives golden and corrupted inference through *fault group
sessions* — the original model is patched or hooked in place per group and
is bit-exactly itself again afterwards, so no model copy is ever made::

    from repro.alficore import ptfiwrap

    wrapper = ptfiwrap(model=net)
    group_iter = wrapper.get_fault_group_iter()
    for epoch in range(num_runs):
        for image, label in dataset:
            golden = net(image)              # net is fault-free here
            with next(group_iter) as group:
                corrupted = group.model(image)
            # net is bit-exactly restored; group.applied_faults has the log

``group.model`` *is* the original model: for weight faults with the group's
corruptions patched in place (restored on exit), for neuron faults with one
forward hook per injectable layer, registered once per iterator, whose active
fault group is swapped per step (the hooks do nothing outside a group and are
removed when the iterator is closed or exhausted).  The
higher-level :class:`~repro.alficore.campaign.CampaignCore` wraps this
loop, adds monitoring/outcome classification and streams result records to
disk.  The legacy ``get_fimodel_iter()`` (a fresh corrupted *copy* of the
model per group, Listing 1 of the paper) remains available.

The wrapper loads the scenario configuration (``scenarios/default.yml`` by
default), profiles the model, pre-generates the complete fault matrix for
the campaign, and exposes the iterators above.  ``get_scenario()`` /
``set_scenario()`` allow iterative experiments (layer sweeps, fault count
sweeps, switching between neuron and weight injection) without manual
reconfiguration: setting a new scenario re-generates the fault matrix.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.alficore.faultmatrix import FaultMatrix, FaultMatrixGenerator
from repro.alficore.policies import faults_required
from repro.alficore.scenario import ScenarioConfig, default_scenario, load_scenario
from repro.nn.module import Module
from repro.pytorchfi.core import (
    FaultInjection,
    NeuronFaultGroup,
    NeuronInjectionSession,
    WeightPatchSession,
)
from repro.pytorchfi.errormodels import (
    BitFlipErrorModel,
    ErrorModel,
    RandomValueErrorModel,
    StuckAtErrorModel,
)

DEFAULT_SCENARIO_LOCATION = Path("scenarios") / "default.yml"


def _error_model_from_scenario(scenario: ScenarioConfig) -> ErrorModel:
    """Build the value-corruption error model the scenario asks for.

    Transient faults are modelled as bit flips (or random value replacement),
    permanent faults as stuck-at faults: a permanently faulty cell always
    reads the stuck value, regardless of what the original bit was.
    """
    if scenario.rnd_value_type == "stuck_at" or (
        scenario.fault_persistence == "permanent" and scenario.rnd_value_type == "bitflip"
    ):
        return StuckAtErrorModel(
            bit_position=scenario.rnd_bit_range[1],
            stuck_value=scenario.stuck_at_value,
            dtype=scenario.quantization,
        )
    if scenario.rnd_value_type == "bitflip":
        return BitFlipErrorModel(bit_range=scenario.rnd_bit_range, dtype=scenario.quantization)
    return RandomValueErrorModel(
        min_value=scenario.rnd_value_min, max_value=scenario.rnd_value_max
    )


class ptfiwrap:
    """Wrap a trained model for large-scale fault injection.

    Args:
        model: the fault-free baseline model.  ``get_fimodel_iter`` corrupts
            copies of it; the fault group sessions patch or hook it while a
            group is open and restore it bit-exactly / unhook it afterwards.
        scenario: an explicit :class:`ScenarioConfig`.  If omitted, the
            wrapper looks for ``scenarios/default.yml`` below ``config_dir``
            (or the current working directory) and otherwise falls back to
            the built-in defaults.
        input_shape: per-sample input shape used to profile activation shapes.
        config_dir: directory in which to look for ``scenarios/default.yml``.
        rng: optional random generator; defaults to one seeded from the
            scenario's ``random_seed``.
    """

    def __init__(
        self,
        model: Module,
        scenario: ScenarioConfig | None = None,
        input_shape: tuple[int, ...] = (3, 32, 32),
        config_dir: str | Path | None = None,
        rng: np.random.Generator | None = None,
        fault_matrix: FaultMatrix | None = None,
    ):
        self.model = model
        self.input_shape = tuple(input_shape)
        self._scenario = scenario if scenario is not None else self._load_default_scenario(config_dir)
        self._rng = rng if rng is not None else np.random.default_rng(self._scenario.random_seed)
        self._fi: FaultInjection | None = None
        self._fault_matrix: FaultMatrix | None = None
        self._initial_matrix = fault_matrix
        self._cursor = 0
        self._rebuild()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _load_default_scenario(config_dir: str | Path | None) -> ScenarioConfig:
        base = Path(config_dir) if config_dir is not None else Path.cwd()
        candidate = base / DEFAULT_SCENARIO_LOCATION
        if candidate.exists():
            return load_scenario(candidate)
        return default_scenario()

    def _rebuild(self) -> None:
        """(Re-)profile the model and regenerate the fault matrix."""
        self._fi = FaultInjection(
            self.model,
            batch_size=self._scenario.batch_size,
            input_shape=self.input_shape,
            layer_types=self._scenario.layer_types,
        )
        if self._initial_matrix is not None:
            # A pre-built matrix (e.g. the primary wrapper's, for a hardened
            # model) replaces the generation step exactly once; scenario
            # changes regenerate.
            matrix, self._initial_matrix = self._initial_matrix, None
            self._fault_matrix = None
            self.set_fault_matrix(matrix)
            return
        if self._scenario.fault_file:
            self._fault_matrix = FaultMatrix.load(self._scenario.fault_file)
            if self._fault_matrix.injection_target != self._scenario.injection_target:
                raise ValueError(
                    "loaded fault file targets "
                    f"{self._fault_matrix.injection_target!r} but the scenario asks for "
                    f"{self._scenario.injection_target!r}"
                )
        else:
            generator = FaultMatrixGenerator(self._fi, self._scenario, rng=self._rng)
            self._fault_matrix = generator.generate(faults_required(self._scenario))
        self._cursor = 0

    # ------------------------------------------------------------------ #
    # scenario access (Section V-D: iterate through a model)
    # ------------------------------------------------------------------ #
    def get_scenario(self) -> ScenarioConfig:
        """Return a copy of the current scenario configuration."""
        return self._scenario.copy()

    def set_scenario(self, scenario: ScenarioConfig) -> None:
        """Replace the scenario and regenerate the fault set for it."""
        scenario.validate()
        self._scenario = scenario
        self._rebuild()

    def update_scenario(self, **overrides) -> None:
        """Convenience wrapper around :meth:`set_scenario` with field overrides."""
        self.set_scenario(self._scenario.copy(**overrides))

    # ------------------------------------------------------------------ #
    # fault matrix access
    # ------------------------------------------------------------------ #
    @property
    def fault_injection(self) -> FaultInjection:
        """The underlying profiled injector core."""
        assert self._fi is not None
        return self._fi

    def get_fault_matrix(self) -> FaultMatrix:
        """Return the pre-generated fault matrix of the current campaign."""
        assert self._fault_matrix is not None
        return self._fault_matrix

    def set_fault_matrix(self, matrix: FaultMatrix) -> None:
        """Replace the fault matrix (e.g. one loaded from a previous run)."""
        if matrix.injection_target != self._scenario.injection_target:
            raise ValueError(
                f"fault matrix targets {matrix.injection_target!r} but the scenario asks for "
                f"{self._scenario.injection_target!r}"
            )
        self._fault_matrix = matrix
        self._cursor = 0

    def save_fault_matrix(self, path: str | Path) -> Path:
        """Persist the fault matrix for reuse in later experiments."""
        return self.get_fault_matrix().save(path)

    @property
    def applied_faults(self) -> list:
        """Log of every corruption applied so far (original/corrupted values)."""
        return list(self.fault_injection.applied_faults)

    def num_fault_groups(self) -> int:
        """Number of fault groups (i.e. faulty models) the matrix provides.

        When a loaded fault file's ``num_faults`` is not a multiple of
        ``max_faults_per_image`` the trailing columns form a final *partial*
        group: it is counted (and yielded) rather than silently dropped.
        """
        group_size = self._scenario.max_faults_per_image
        return -(-self.get_fault_matrix().num_faults // group_size)

    def _group_columns(self, group_index: int) -> list[int]:
        """Fault-matrix columns of one group, clipped to the matrix width."""
        group_size = self._scenario.max_faults_per_image
        num_faults = self.get_fault_matrix().num_faults
        start = group_index * group_size
        columns = list(range(start, min(start + group_size, num_faults)))
        if len(columns) < group_size:
            warnings.warn(
                f"fault group {group_index} is partial: the fault matrix provides "
                f"{num_faults} faults, which is not a multiple of "
                f"max_faults_per_image={group_size}; applying the remaining "
                f"{len(columns)} fault(s)",
                RuntimeWarning,
                stacklevel=3,
            )
        return columns

    # ------------------------------------------------------------------ #
    # the faulty-model iterator (Listing 1)
    # ------------------------------------------------------------------ #
    def get_fimodel_iter(
        self,
        error_model: ErrorModel | None = None,
        cycle: bool = False,
    ) -> Iterator[Module]:
        """Return an iterator over fault-injected model instances.

        Each ``next()`` call consumes the next ``max_faults_per_image`` fault
        columns and returns a fresh corrupted copy of the original model.  The
        iterator is exhausted after :meth:`num_fault_groups` calls unless
        ``cycle`` is true.

        Args:
            error_model: overrides the error model derived from the scenario.
            cycle: restart from the first fault group after the last one.
        """
        model_for_faults = error_model if error_model is not None else _error_model_from_scenario(self._scenario)
        return self._model_generator(model_for_faults, cycle)

    def _model_generator(self, error_model: ErrorModel, cycle: bool) -> Iterator[Module]:
        while True:
            if self._cursor >= self.num_fault_groups():
                if not cycle:
                    return
                self._cursor = 0
            columns = self._group_columns(self._cursor)
            self._cursor += 1
            yield self._corrupt_with_columns(columns, error_model)

    # ------------------------------------------------------------------ #
    # the clone-free fault-group iterator (campaign engine)
    # ------------------------------------------------------------------ #
    def get_fault_group_iter(
        self,
        error_model: ErrorModel | None = None,
        cycle: bool = False,
        start: int | None = None,
        stop: int | None = None,
    ) -> Iterator[WeightPatchSession | NeuronFaultGroup]:
        """Return an iterator over clone-free fault group sessions.

        Each ``next()`` call consumes the next group of fault columns and
        returns a context manager with a uniform protocol: ``group.model`` is
        the faulty model while the context is entered, and
        ``group.applied_faults`` holds the group's :class:`AppliedFault`
        records afterwards.  For weight faults the original model is patched
        in place and restored bit-exactly on exit; for neuron faults it is
        hooked once and only the active fault group is swapped (close the
        iterator, or exhaust it, to remove the hooks).

        Args:
            error_model: overrides the error model derived from the scenario.
            cycle: restart from the first fault group after the last one.
            start: first fault group to yield.  When given, the iterator is
                *shard-scoped*: it walks the explicit range ``[start, stop)``
                with a local cursor and leaves the wrapper's shared cursor
                untouched, so parallel campaign shards can each consume their
                own contiguous slice of the same fault matrix.
            stop: end of the shard-scoped range (exclusive; clipped to the
                number of fault groups).  Only valid together with ``start``.
        """
        error_model = error_model if error_model is not None else _error_model_from_scenario(self._scenario)
        if start is None and stop is None:
            return self._session_generator(error_model, self._cursor_indices(cycle))
        if start is None or start < 0:
            raise ValueError(f"shard-scoped iteration needs a non-negative start, got {start}")
        if cycle:
            raise ValueError("cycle is not supported for shard-scoped fault group ranges")
        stop = self.num_fault_groups() if stop is None else min(stop, self.num_fault_groups())
        return self._session_generator(error_model, range(start, stop))

    def _cursor_indices(self, cycle: bool) -> Iterator[int]:
        """Group indices off the wrapper's shared cursor, advancing it."""
        while True:
            if self._cursor >= self.num_fault_groups():
                if not cycle:
                    return
                self._cursor = 0
            group_index = self._cursor
            self._cursor += 1
            yield group_index

    def _session_generator(
        self, error_model: ErrorModel, indices: Iterable[int]
    ) -> Iterator[WeightPatchSession | NeuronFaultGroup]:
        neuron_session: NeuronInjectionSession | None = None
        try:
            for group_index in indices:
                neuron_session, group = self._group_session(group_index, error_model, neuron_session)
                yield group
        finally:
            if neuron_session is not None:
                neuron_session.close()

    def _group_rng(self, group_index: int, error_model: ErrorModel) -> np.random.Generator | None:
        """Per-group injection rng, derived from ``(random_seed, group_index)``.

        The built-in error models replay values pre-drawn in the fault
        matrix, but a *custom* error model may draw from the rng at apply
        time.  Deriving the stream per group (instead of consuming one
        shared stream in iteration order) makes every group's corruption
        independent of which groups ran before it — which is what lets a
        sharded campaign reproduce a serial run bit-exactly for any error
        model.  ``None`` for an error model that never draws
        (:attr:`~repro.pytorchfi.errormodels.ErrorModel.draws`): a campaign
        of built-in error models builds no generator per group.
        """
        if not getattr(error_model, "draws", True):
            return None
        return np.random.default_rng((abs(int(self._scenario.random_seed)), group_index))

    def _group_session(
        self,
        group_index: int,
        error_model: ErrorModel,
        neuron_session: NeuronInjectionSession | None,
    ) -> tuple[NeuronInjectionSession | None, WeightPatchSession | NeuronFaultGroup]:
        """Build the clone-free session of one group, reusing the neuron session."""
        columns = self._group_columns(group_index)
        matrix = self.get_fault_matrix()
        if self._scenario.injection_target == "neurons":
            if neuron_session is None:
                neuron_session = self.fault_injection.neuron_injection_session(
                    error_model=error_model, rng=self._rng
                )
            return neuron_session, neuron_session.activate(
                matrix.to_neuron_faults(columns), rng=self._group_rng(group_index, error_model)
            )
        return neuron_session, self.fault_injection.weight_patch_session(
            matrix.to_weight_faults(columns),
            error_model=error_model,
            rng=self._group_rng(group_index, error_model),
        )

    def fault_group_session(
        self,
        group_index: int,
        error_model: ErrorModel | None = None,
    ) -> WeightPatchSession | NeuronFaultGroup:
        """Return the clone-free session for an explicit fault group.

        Like :meth:`corrupted_model_for_group` this does not advance the
        internal cursor, making it convenient for replaying one group (e.g.
        against a hardened model).  A neuron group gets a session of its own
        and hooks the model only while it is open; sequential campaigns
        should prefer :meth:`get_fault_group_iter`, which hooks it once.
        """
        total_groups = self.num_fault_groups()
        if not 0 <= group_index < total_groups:
            raise IndexError(f"group index {group_index} out of range (0..{total_groups - 1})")
        error_model = error_model if error_model is not None else _error_model_from_scenario(self._scenario)
        session, group = self._group_session(group_index, error_model, None)
        if session is not None:
            # Nobody else would close this session: the group re-attaches it
            # on enter and closes it on exit.
            session.close()
            group.owns_session = True
        return group

    def _corrupt_with_columns(self, columns: list[int], error_model: ErrorModel) -> Module:
        matrix = self.get_fault_matrix()
        if self._scenario.injection_target == "neurons":
            faults = matrix.to_neuron_faults(columns)
            return self.fault_injection.declare_neuron_fault_injection(
                faults, error_model=error_model, rng=self._rng
            )
        faults = matrix.to_weight_faults(columns)
        return self.fault_injection.declare_weight_fault_injection(
            faults, error_model=error_model, rng=self._rng
        )

    def corrupted_model_for_group(
        self,
        group_index: int,
        error_model: ErrorModel | None = None,
    ) -> Module:
        """Return the corrupted model for an explicit fault group (repeatable).

        Unlike the iterator this does not advance the internal cursor, which
        makes it convenient for replaying a specific fault group against a
        hardened model or for debugging a single fault location.
        """
        total_groups = self.num_fault_groups()
        if not 0 <= group_index < total_groups:
            raise IndexError(f"group index {group_index} out of range (0..{total_groups - 1})")
        error_model = error_model if error_model is not None else _error_model_from_scenario(self._scenario)
        return self._corrupt_with_columns(self._group_columns(group_index), error_model)

    def reset_iterator(self) -> None:
        """Rewind the faulty-model iterator to the first fault group."""
        self._cursor = 0
