"""Frozen per-column fault-matrix generator, generation 0 — test oracle only.

This is the reference path ``FaultMatrixGenerator.generate(method=
"percolumn")`` took before the generator drew every column from one
per-layer draw plan: one Python iteration per fault, one scalar
``rng.integers`` call per coordinate, the value row drawn last.  The method
bodies below are copied verbatim; only the class around them is new.

Production code must never import this module.
``tests/test_alficore_faultmatrix.py`` asserts that the production generator
is byte-identical to this one for the same seed, across models (including a
rank-5 ``Conv3d`` layer), targets, policies, value types and layer ranges.
Do not "fix" or speed up anything here: the value of the file is that it does
not change.
"""

from __future__ import annotations

import numpy as np

from repro.alficore.faultmatrix import NUM_ROWS
from repro.alficore.layerweights import weighted_layer_choice
from repro.alficore.scenario import ScenarioConfig
from repro.pytorchfi.core import UNSET, FaultInjection


class PerColumnGenerator:
    """Draw a campaign's ``(7, n)`` fault matrix one column at a time."""

    def __init__(
        self,
        fi: FaultInjection,
        scenario: ScenarioConfig,
        rng: np.random.Generator | None = None,
    ):
        self.fi = fi
        self.scenario = scenario
        self.rng = rng if rng is not None else np.random.default_rng(scenario.random_seed)

    def generate(self, num_faults: int | None = None) -> np.ndarray:
        """The fault matrix of ``num_faults`` columns (default: the scenario's)."""
        count = num_faults if num_faults is not None else self.scenario.total_faults
        layers = np.asarray(
            weighted_layer_choice(
                self.fi,
                self.scenario.injection_target,
                self.rng,
                size=count,
                layer_range=self.scenario.layer_range,
                weighted=self.scenario.weighted_layer_selection,
            ),
            dtype=np.int64,
        )
        return self._assemble_percolumn(count, layers)

    def _assemble_percolumn(self, count: int, layers: np.ndarray) -> np.ndarray:
        """Reference path: draw and assemble one fault column at a time."""
        matrix = np.zeros((NUM_ROWS, count), dtype=np.float64)
        for column in range(count):
            layer_index = int(layers[column])
            if self.scenario.injection_target == "neurons":
                matrix[:, column] = self._neuron_column(column, layer_index)
            else:
                matrix[:, column] = self._weight_column(layer_index)
        return matrix

    def _neuron_column(self, column: int, layer_index: int) -> np.ndarray:
        info = self.fi.get_layer_info(layer_index)
        if info.output_shape is None:
            raise RuntimeError(
                f"layer {info.name} has no recorded output shape; neuron faults need profiling"
            )
        batch_position = self._batch_position(column)
        shape = info.output_shape
        channel, depth, height, width = UNSET, UNSET, UNSET, UNSET
        if len(shape) == 2:  # (N, features): store the feature index in the channel row
            channel = int(self.rng.integers(0, shape[1]))
        elif len(shape) == 4:  # (N, C, H, W)
            channel = int(self.rng.integers(0, shape[1]))
            height = int(self.rng.integers(0, shape[2]))
            width = int(self.rng.integers(0, shape[3]))
        elif len(shape) == 5:  # (N, C, D, H, W)
            channel = int(self.rng.integers(0, shape[1]))
            depth = int(self.rng.integers(0, shape[2]))
            height = int(self.rng.integers(0, shape[3]))
            width = int(self.rng.integers(0, shape[4]))
        else:
            raise ValueError(f"unsupported output rank {len(shape)} for layer {info.name}")
        return np.asarray(
            [batch_position, layer_index, channel, depth, height, width, self._value()],
            dtype=np.float64,
        )

    def _weight_column(self, layer_index: int) -> np.ndarray:
        info = self.fi.get_layer_info(layer_index)
        shape = info.weight_shape
        out_channel, in_channel = 0, 0
        depth, height, width = UNSET, UNSET, UNSET
        if len(shape) == 2:  # Linear (out_features, in_features)
            out_channel = int(self.rng.integers(0, shape[0]))
            in_channel = int(self.rng.integers(0, shape[1]))
        elif len(shape) == 4:  # Conv2d (out, in, kh, kw)
            out_channel = int(self.rng.integers(0, shape[0]))
            in_channel = int(self.rng.integers(0, shape[1]))
            height = int(self.rng.integers(0, shape[2]))
            width = int(self.rng.integers(0, shape[3]))
        elif len(shape) == 5:  # Conv3d (out, in, kd, kh, kw)
            out_channel = int(self.rng.integers(0, shape[0]))
            in_channel = int(self.rng.integers(0, shape[1]))
            depth = int(self.rng.integers(0, shape[2]))
            height = int(self.rng.integers(0, shape[3]))
            width = int(self.rng.integers(0, shape[4]))
        else:
            raise ValueError(f"unsupported weight rank {len(shape)} for layer {info.name}")
        return np.asarray(
            [layer_index, out_channel, in_channel, depth, height, width, self._value()],
            dtype=np.float64,
        )

    def _batch_position(self, column: int) -> int:
        """Position of the targeted image within its batch.

        For the ``per_image`` policy every group of ``max_faults_per_image``
        columns belongs to one image, so the batch position follows from the
        image index; for the coarser policies the position is drawn randomly.
        """
        if self.scenario.inj_policy == "per_image":
            image_index = column // self.scenario.max_faults_per_image
            return image_index % self.scenario.batch_size
        return int(self.rng.integers(0, self.scenario.batch_size))

    def _value(self) -> float:
        """Draw the value row according to the configured value corruption."""
        if self.scenario.rnd_value_type in ("bitflip", "stuck_at"):
            low, high = self.scenario.rnd_bit_range
            return float(self.rng.integers(low, high + 1))
        return float(self.rng.uniform(self.scenario.rnd_value_min, self.scenario.rnd_value_max))
