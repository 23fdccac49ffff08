"""Pre-generated fault matrices (Table I of the paper).

All faults of a campaign are generated *before* the inference run and stored
as a matrix: each column is one fault, and the rows encode its location and
value.  For neuron faults the rows are (Table I)

    1. batch    -- number of the image within a batch
    2. layer    -- n-th layer out of all injectable layers
    3. channel  -- n-th channel of the layer output
    4. depth    -- additional index for conv3d layers
    5. height   -- y position in the output
    6. width    -- x position in the output
    7. value    -- either a number or the index of the bit position to flip

Weight fault matrices use the same layout with the first rows re-interpreted:
row 1 is the layer index and rows 2/3 are the weight's output and input
channel.  The matrix is persisted as a binary file so the identical set of
faults can be reused across experiments (e.g. to compare a hardened model
against the unprotected baseline under exactly the same faults).

:class:`FaultMatrixGenerator` is the one producer of a matrix: every column
is drawn from one per-layer draw plan.  :meth:`FaultMatrix.save` writes the
fault file and :meth:`FaultMatrix.load` is its one reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.alficore.layerweights import weighted_layer_choice
from repro.alficore.scenario import ScenarioConfig
from repro.pytorchfi.core import UNSET, FaultInjection, NeuronFault, WeightFault

NEURON_ROWS = ("batch", "layer", "channel", "depth", "height", "width", "value")
WEIGHT_ROWS = ("layer", "out_channel", "in_channel", "depth", "height", "width", "value")
NUM_ROWS = 7


@dataclass
class FaultMatrix:
    """A pre-generated set of faults (one column per fault).

    Attributes:
        matrix: array of shape ``(7, num_faults)``.
        injection_target: ``"neurons"`` or ``"weights"``.
        metadata: free-form campaign metadata (scenario dict, model name, ...).
    """

    matrix: np.ndarray
    injection_target: str
    metadata: dict

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != NUM_ROWS:
            raise ValueError(
                f"fault matrix must have shape (7, n), got {self.matrix.shape}"
            )
        if self.injection_target not in ("neurons", "weights"):
            raise ValueError(f"invalid injection target {self.injection_target!r}")

    @property
    def rows(self) -> tuple[str, ...]:
        """Row labels of the matrix (depends on the injection target)."""
        return NEURON_ROWS if self.injection_target == "neurons" else WEIGHT_ROWS

    @property
    def num_faults(self) -> int:
        """Number of faults (columns) in the matrix."""
        return self.matrix.shape[1]

    def column(self, index: int) -> np.ndarray:
        """Return one fault column."""
        if not 0 <= index < self.num_faults:
            raise IndexError(f"fault column {index} out of range (0..{self.num_faults - 1})")
        return self.matrix[:, index]

    def columns(self, indices: list[int] | np.ndarray) -> np.ndarray:
        """Return a sub-matrix containing the selected fault columns."""
        return self.matrix[:, np.asarray(indices, dtype=np.int64)]

    # ------------------------------------------------------------------ #
    # conversion to injector fault objects
    # ------------------------------------------------------------------ #
    def to_neuron_faults(self, indices: list[int] | np.ndarray) -> list[NeuronFault]:
        """Convert the selected columns into :class:`NeuronFault` objects."""
        if self.injection_target != "neurons":
            raise ValueError("matrix holds weight faults, not neuron faults")
        faults = []
        for column_index in np.asarray(indices, dtype=np.int64):
            column = self.column(int(column_index))
            faults.append(
                NeuronFault(
                    batch=int(column[0]),
                    layer=int(column[1]),
                    channel=int(column[2]),
                    depth=int(column[3]),
                    height=int(column[4]),
                    width=int(column[5]),
                    value=float(column[6]),
                )
            )
        return faults

    def to_weight_faults(self, indices: list[int] | np.ndarray) -> list[WeightFault]:
        """Convert the selected columns into :class:`WeightFault` objects."""
        if self.injection_target != "weights":
            raise ValueError("matrix holds neuron faults, not weight faults")
        faults = []
        for column_index in np.asarray(indices, dtype=np.int64):
            column = self.column(int(column_index))
            faults.append(
                WeightFault(
                    layer=int(column[0]),
                    out_channel=int(column[1]),
                    in_channel=int(column[2]),
                    depth=int(column[3]),
                    height=int(column[4]),
                    width=int(column[5]),
                    value=float(column[6]),
                )
            )
        return faults

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the matrix (and metadata) as a binary ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        metadata_json = np.asarray(_encode_metadata(self.metadata))
        np.savez(
            path,
            matrix=self.matrix,
            injection_target=np.asarray(self.injection_target),
            metadata=metadata_json,
        )
        # numpy appends .npz if missing; normalise the returned path.
        return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")

    @classmethod
    def load(cls, path: str | Path) -> "FaultMatrix":
        """Load a matrix previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists() and path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        if not path.exists():
            raise FileNotFoundError(f"fault file not found: {path}")
        with np.load(path, allow_pickle=False) as archive:
            matrix = archive["matrix"]
            target = str(archive["injection_target"])
            metadata = _decode_metadata(str(archive["metadata"]))
        return cls(matrix=matrix, injection_target=target, metadata=metadata)

    def __eq__(self, other: object) -> bool:
        """Same target and the same matrix, bit for bit (NaN equals NaN)."""
        if not isinstance(other, FaultMatrix):
            return NotImplemented
        return self.injection_target == other.injection_target and bool(
            np.array_equal(self.matrix, other.matrix, equal_nan=True)
        )


def _encode_metadata(metadata: dict) -> str:
    import json

    return json.dumps(metadata, sort_keys=True, default=str)


def _decode_metadata(blob: str) -> dict:
    import json

    return json.loads(blob) if blob else {}


class FaultMatrixGenerator:
    """Generate a :class:`FaultMatrix` from a scenario and a profiled model.

    Args:
        fi: profiled :class:`FaultInjection` core (layer shapes).
        scenario: campaign configuration.
        rng: optional random generator; defaults to one seeded from the
            scenario's ``random_seed`` so fault sets are reproducible.
    """

    def __init__(
        self,
        fi: FaultInjection,
        scenario: ScenarioConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.fi = fi
        self.scenario = scenario
        self.rng = rng if rng is not None else np.random.default_rng(scenario.random_seed)
        self._check_layer_range()

    def _check_layer_range(self) -> None:
        if self.scenario.layer_range is None:
            return
        start, end = self.scenario.layer_range
        if end >= self.fi.num_layers:
            raise ValueError(
                f"scenario layer_range {self.scenario.layer_range} exceeds the model's "
                f"{self.fi.num_layers} injectable layers"
            )

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def generate(self, num_faults: int | None = None) -> FaultMatrix:
        """Generate the full fault matrix for the campaign.

        After the layer row, every column draws, in order: the batch position
        (neurons under the ``per_batch`` / ``per_epoch`` policies), the
        coordinate rows of its layer, then the value row — the draw plan of
        :meth:`_layer_draw_plan`.  Bit-flip and stuck-at values are bounded
        integers too, so the whole campaign is one ``rng.integers`` call with
        per-draw bounds; numpy consumes the bit stream identically for batched
        and sequential bounded draws, so the matrix equals the one a loop of
        scalar draws would give for the same seed.  Value types that draw a
        uniform number (``number`` and plug-ins) interleave ``rng.uniform``
        into that stream, so they walk the same plan column by column.

        Args:
            num_faults: number of faults; defaults to the scenario's
                ``total_faults`` (= dataset_size * num_runs * max_faults_per_image).
        """
        scenario = self.scenario
        count = num_faults if num_faults is not None else scenario.total_faults
        if count <= 0:
            raise ValueError(f"number of faults must be positive, got {count}")
        layers = np.asarray(
            weighted_layer_choice(
                self.fi,
                scenario.injection_target,
                self.rng,
                size=count,
                layer_range=scenario.layer_range,
                weighted=scenario.weighted_layer_selection,
            ),
            dtype=np.int64,
        )
        # Rows no column draws: the layer, the coordinates the layer's rank
        # leaves unused and, under ``per_image``, the image's batch position.
        matrix = np.zeros((NUM_ROWS, count), dtype=np.float64)
        if scenario.injection_target == "neurons":
            matrix[1, :] = layers
            matrix[2:6, :] = UNSET
            if scenario.inj_policy == "per_image":
                image_index = np.arange(count) // scenario.max_faults_per_image
                matrix[0, :] = image_index % scenario.batch_size
        else:
            matrix[0, :] = layers
            matrix[3:6, :] = UNSET
        plans = {int(layer): self._layer_draw_plan(int(layer)) for layer in np.unique(layers)}
        if scenario.rnd_value_type in ("bitflip", "stuck_at"):
            self._draw_integers(matrix, layers, plans)
        else:
            self._draw_columns(matrix, layers, plans)
        metadata = {
            "scenario": self.scenario.as_dict(),
            "model_name": self.scenario.model_name,
            "dataset_name": self.scenario.dataset_name,
            "num_faults": count,
            "layer_names": [info.name for info in self.fi.layers],
        }
        return FaultMatrix(
            matrix=matrix,
            injection_target=self.scenario.injection_target,
            metadata=metadata,
        )

    def _layer_draw_plan(self, layer_index: int) -> np.ndarray:
        """The draws of one column of ``layer_index``, in draw order.

        A ``(3, k)`` array: the matrix row, the lower and the (exclusive)
        upper bound of each draw — the batch position (neurons under a drawn
        policy), the coordinates the layer's rank has, then the value row
        with the bit range as bounds, the one entry a uniform value type
        draws differently.
        """
        scenario = self.scenario
        info = self.fi.get_layer_info(layer_index)
        draws: list[tuple[int, int, int]] = []
        rows_by_rank: dict[int, tuple[int, ...]]
        if scenario.injection_target == "neurons":
            if info.output_shape is None:
                raise RuntimeError(
                    f"layer {info.name} has no recorded output shape; neuron faults need profiling"
                )
            if scenario.inj_policy != "per_image":
                draws.append((0, 0, scenario.batch_size))
            kind, shape = "output", info.output_shape
            dims = shape[1:]
            rows_by_rank = {
                2: (2,),  # (N, features): the feature index in the channel row
                4: (2, 4, 5),  # (N, C, H, W)
                5: (2, 3, 4, 5),  # (N, C, D, H, W)
            }
        else:
            kind, shape = "weight", info.weight_shape
            dims = shape
            rows_by_rank = {
                2: (1, 2),  # Linear (out_features, in_features)
                4: (1, 2, 4, 5),  # Conv2d (out, in, kh, kw)
                5: (1, 2, 3, 4, 5),  # Conv3d (out, in, kd, kh, kw)
            }
        if len(shape) not in rows_by_rank:
            raise ValueError(f"unsupported {kind} rank {len(shape)} for layer {info.name}")
        draws += [(row, 0, int(dim)) for row, dim in zip(rows_by_rank[len(shape)], dims)]
        low_bit, high_bit = scenario.rnd_bit_range
        draws.append((6, low_bit, high_bit + 1))
        return np.asarray(draws, dtype=np.int64).T

    def _draw_integers(
        self, matrix: np.ndarray, layers: np.ndarray, plans: dict[int, np.ndarray]
    ) -> None:
        """Draw every planned row of every column in one ``rng.integers`` call."""
        counts = np.zeros(self.fi.num_layers, dtype=np.int64)
        for layer, plan in plans.items():
            counts[layer] = plan.shape[1]
        col_counts = counts[layers]
        offsets = np.concatenate(([0], np.cumsum(col_counts)))
        table = np.empty((3, int(offsets[-1])), dtype=np.int64)
        for layer, plan in plans.items():
            columns = np.nonzero(layers == layer)[0]
            slots = offsets[columns][:, None] + np.arange(plan.shape[1])[None, :]
            table[:, slots] = plan[:, None, :]
        rows, lows, highs = table
        draw_columns = np.repeat(np.arange(len(layers)), col_counts)
        matrix[rows, draw_columns] = self.rng.integers(lows, highs)

    def _draw_columns(
        self, matrix: np.ndarray, layers: np.ndarray, plans: dict[int, np.ndarray]
    ) -> None:
        """Walk the plan column by column, drawing the value row as a uniform."""
        value_min, value_max = self.scenario.rnd_value_min, self.scenario.rnd_value_max
        coordinates = {layer: plan[:, :-1].T.tolist() for layer, plan in plans.items()}
        for column, layer in enumerate(layers.tolist()):
            for row, low, high in coordinates[layer]:
                matrix[row, column] = self.rng.integers(low, high)
            matrix[6, column] = self.rng.uniform(value_min, value_max)
