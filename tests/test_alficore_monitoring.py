"""Unit tests for the NaN/Inf monitors and custom monitoring hooks."""

import numpy as np
import pytest

from repro import nn
from repro.alficore import InferenceMonitor, RangeMonitor
from repro.alficore.monitoring import MonitorResult, output_has_nan_or_inf
from repro.models.detection.detectors import Detection


@pytest.fixture
def simple_model():
    rng = np.random.default_rng(0)
    return nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng)).eval()


class TestInferenceMonitor:
    def test_clean_inference_reports_nothing(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        with monitor:
            simple_model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert not result.nan_detected
        assert not result.inf_detected
        assert not result.due_detected

    def test_nan_input_detected(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        with monitor:
            simple_model(np.full((1, 4), np.nan, dtype=np.float32))
            result = monitor.collect()
        assert result.nan_detected
        assert result.due_detected
        assert len(result.nan_layers) > 0

    def test_inf_detected_with_layer_name(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        with monitor:
            simple_model(np.full((1, 4), np.finfo(np.float32).max, dtype=np.float32))
            result = monitor.collect()
        assert result.inf_detected
        assert all(isinstance(name, str) and name for name in result.inf_layers)

    def test_collect_resets_state(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        monitor.attach()
        simple_model(np.full((1, 4), np.nan, dtype=np.float32))
        first = monitor.collect()
        simple_model(np.ones((1, 4), dtype=np.float32))
        second = monitor.collect()
        monitor.detach()
        assert first.nan_detected and not second.nan_detected

    def test_detach_removes_hooks(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        monitor.attach()
        monitor.detach()
        simple_model(np.full((1, 4), np.nan, dtype=np.float32))
        assert not monitor.collect().nan_detected

    def test_layer_name_filter(self, simple_model):
        monitor = InferenceMonitor(simple_model, layer_names=["2"])
        with monitor:
            simple_model(np.full((1, 4), np.nan, dtype=np.float32))
            result = monitor.collect()
        assert set(result.nan_layers) == {"2"}

    def test_attach_is_idempotent(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        monitor.attach()
        monitor.attach()
        simple_model(np.full((1, 4), np.nan, dtype=np.float32))
        result = monitor.collect()
        monitor.detach()
        # Each leaf layer reports at most once per inference.
        assert len(result.nan_layers) == len(set(result.nan_layers))

    def test_custom_monitor_events(self, simple_model):
        monitor = InferenceMonitor(simple_model, custom_monitors=[RangeMonitor(bound=1e-6)])
        with monitor:
            simple_model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert len(result.custom_events) > 0
        assert result.custom_events[0]["monitor"] == "range"

    def test_monitor_result_as_dict(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        with monitor:
            simple_model(np.ones((1, 4), dtype=np.float32))
            data = monitor.collect().as_dict()
        assert set(data) == {"nan_detected", "inf_detected", "nan_layers", "inf_layers", "custom_events"}


class TestRangeMonitor:
    def test_flags_out_of_range(self):
        monitor = RangeMonitor(bound=10.0)
        event = monitor("layer", np.array([100.0]))
        assert event["peak"] == 100.0

    def test_ignores_in_range(self):
        assert RangeMonitor(bound=10.0)("layer", np.array([5.0])) is None

    def test_ignores_all_nan(self):
        assert RangeMonitor(bound=10.0)("layer", np.array([np.nan])) is None

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            RangeMonitor(bound=0)


class TestOutputNanInfCheck:
    def test_array_output(self):
        assert output_has_nan_or_inf(np.array([1.0, np.nan])) == (True, False)
        assert output_has_nan_or_inf(np.array([1.0, np.inf])) == (False, True)
        assert output_has_nan_or_inf(np.array([1.0, 2.0])) == (False, False)

    def test_detection_list_output(self):
        clean = Detection(boxes=np.array([[0, 0, 1, 1.0]]), scores=np.array([0.5]), labels=np.array([0]))
        broken = Detection(
            boxes=np.array([[0, 0, np.inf, 1.0]]), scores=np.array([np.nan]), labels=np.array([0])
        )
        assert output_has_nan_or_inf([clean]) == (False, False)
        assert output_has_nan_or_inf([broken]) == (True, True)

    def test_empty_output(self):
        assert output_has_nan_or_inf(np.zeros((0,))) == (False, False)
        assert output_has_nan_or_inf([Detection()]) == (False, False)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int32, np.bool_])
    @pytest.mark.parametrize("values", [[0.5, 2.0], [np.nan, 1.0], [-np.inf, 0.0], [np.nan, np.inf]])
    def test_arrays_are_scanned_in_their_own_dtype(self, monkeypatch, dtype, values):
        from repro.alficore import monitoring

        with np.errstate(invalid="ignore"):
            array = np.array(values).astype(dtype)
        expected = monitoring._nan_inf(array.astype(np.float64))
        scanned = []
        nan_inf = monitoring._nan_inf

        def spy(values):
            scanned.append(values.dtype)
            return nan_inf(values)

        monkeypatch.setattr(monitoring, "_nan_inf", spy)
        detection = Detection(boxes=np.tile(array, 2).reshape(1, 4), scores=array[:1])
        assert output_has_nan_or_inf(array) == expected
        assert output_has_nan_or_inf([detection, array]) == expected
        assert set(scanned) == {array.dtype}
        # What is not a numeric array is read as float64, as before.
        assert output_has_nan_or_inf([values]) == monitoring._nan_inf(np.asarray(values))


class TestListOutputMonitoring:
    """Regression: list/tuple layer outputs must not bypass DUE detection."""

    class _DetectionHead(nn.Module):
        def __init__(self, payload):
            super().__init__()
            self.payload = payload

        def forward(self, x):
            return self.payload

    def test_list_of_detections_with_nan_boxes_detected(self):
        detections = [Detection(boxes=np.array([[0.0, 0.0, np.nan, 1.0]]),
                                scores=np.array([0.9]),
                                labels=np.array([1]))]
        head = self._DetectionHead(detections).eval()
        model = nn.Sequential(head).eval()
        monitor = InferenceMonitor(model)
        with monitor:
            model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert result.nan_detected
        assert result.due_detected

    def test_list_of_detections_with_inf_scores_detected(self):
        detections = [Detection(boxes=np.array([[0.0, 0.0, 1.0, 1.0]]),
                                scores=np.array([np.inf]),
                                labels=np.array([1]))]
        model = nn.Sequential(self._DetectionHead(detections)).eval()
        monitor = InferenceMonitor(model)
        with monitor:
            model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert result.inf_detected

    def test_clean_list_output_reports_nothing(self):
        detections = [Detection(boxes=np.array([[0.0, 0.0, 1.0, 1.0]]),
                                scores=np.array([0.5]),
                                labels=np.array([0]))]
        model = nn.Sequential(self._DetectionHead(detections)).eval()
        monitor = InferenceMonitor(model)
        with monitor:
            model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert not result.due_detected

    def test_tuple_output_with_nan_detected(self):
        payload = (np.array([1.0, 2.0]), np.array([np.nan]))
        model = nn.Sequential(self._DetectionHead(payload)).eval()
        monitor = InferenceMonitor(model)
        with monitor:
            model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert result.nan_detected


class TestStackedListOutputs:
    """A stacked pass's list of detections is scanned row by row, like an array."""

    @staticmethod
    def _scan(payload, sizes):
        model = nn.Sequential(TestListOutputMonitoring._DetectionHead(payload)).eval()
        results = [MonitorResult() for _ in sizes]
        monitor = InferenceMonitor(model)
        with monitor:
            monitor.split(results, sizes)
            model(np.ones((sum(sizes), 4), dtype=np.float32))
        return [(result.nan_layers, result.inf_layers) for result in results]

    def test_each_row_gets_the_events_of_its_detections(self):
        clean = Detection(boxes=np.zeros((1, 4), np.float32), scores=np.ones(1, np.float32))
        nan = Detection(boxes=np.full((1, 4), np.nan, np.float32), scores=np.ones(1, np.float32))
        inf = Detection(boxes=np.zeros((1, 4), np.float32), scores=np.full(1, np.inf, np.float32))
        assert self._scan([clean, nan, clean, inf], [1, 2, 1]) == [
            ([], []), (["0"], []), ([], ["0"])
        ]

    def test_a_list_of_arrays_is_judged_as_a_whole(self):
        payload = [np.array([1.0, np.nan]), np.array([1.0, 2.0])]
        assert self._scan(payload, [1, 1]) == [(["0"], []), (["0"], [])]


class TestLeafScan:
    """The leaf hook decides with one ``isfinite`` pass and tells NaN from Inf
    only on a non-finite tensor; the events are those of two full scans."""

    @pytest.mark.parametrize("values,nan,inf", [
        ([1.0, -2.0, 0.0], False, False),
        ([1.0, np.nan], True, False),
        ([np.inf, 1.0], False, True),
        ([-np.inf, np.nan], True, True),
    ])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_array_outputs(self, values, nan, inf, dtype):
        payload = np.array(values, dtype=dtype)
        model = nn.Sequential(TestListOutputMonitoring._DetectionHead(payload)).eval()
        seen = []
        monitor = InferenceMonitor(model, custom_monitors=[lambda name, out: seen.append(name)])
        with monitor:
            model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert result.nan_layers == (["0"] if nan else [])
        assert result.inf_layers == (["0"] if inf else [])
        assert seen == ["0"]  # custom monitors see every float tensor, finite or not

    def test_integer_outputs_are_not_scanned(self):
        model = nn.Sequential(TestListOutputMonitoring._DetectionHead(np.arange(4))).eval()
        seen = []
        monitor = InferenceMonitor(model, custom_monitors=[lambda name, out: seen.append(name)])
        with monitor:
            model(np.ones((1, 4), dtype=np.float32))
            result = monitor.collect()
        assert not result.due_detected and seen == []

    def test_detector_post_processing_is_a_monitored_leaf(self):
        from repro.models.detection import yolov3_tiny

        model = yolov3_tiny(num_classes=5, seed=0).eval()
        model.head.weight.data[4, 0, 0, 0] = np.nan  # objectness of the first anchor
        monitor = InferenceMonitor(model)
        with monitor:
            model(np.zeros((2, 3, 64, 64), dtype=np.float32))
            result = monitor.collect()
        # NaN scores survive selection, so the decoded detections carry them.
        assert result.nan_layers == ["head", "decode"]


class TestMonitorEnableGate:
    def test_disabled_monitor_records_nothing(self, simple_model):
        monitor = InferenceMonitor(simple_model)
        monitor.attach()
        monitor.enabled = False
        simple_model(np.array([[np.nan, 1.0, 1.0, 1.0]], dtype=np.float32))
        assert not monitor.collect().due_detected
        monitor.enabled = True
        simple_model(np.array([[np.nan, 1.0, 1.0, 1.0]], dtype=np.float32))
        assert monitor.collect().nan_detected
        monitor.detach()


class TestStackedRows:
    """``split``: the passes' batch stacks several inferences, and each one
    gets the events a pass of its own rows alone would have raised."""

    @staticmethod
    def _alone(model, rows):
        monitor = InferenceMonitor(model)
        with monitor, np.errstate(over="ignore", invalid="ignore"):
            model(rows)
            return monitor.collect()

    def test_events_go_to_the_rows_that_raised_them_in_layer_order(self, simple_model):
        rows = np.ones((5, 4), dtype=np.float32)
        rows[1, 0] = np.nan
        rows[3, 2] = np.finfo(np.float32).max  # Inf behind the first Linear
        rows[4, 1] = -np.inf
        sizes = [1, 2, 2]  # inferences of 1, 2 and 2 rows
        results = [MonitorResult() for _ in sizes]
        monitor = InferenceMonitor(simple_model)
        with monitor, np.errstate(over="ignore", invalid="ignore"):
            monitor.split(results, sizes)
            simple_model(rows)
            monitor.split(None)
            assert not monitor.collect().due_detected  # nothing left for the unsplit pass
        offsets = np.cumsum([0, *sizes])
        for result, start, stop in zip(results, offsets, offsets[1:]):
            assert result == self._alone(simple_model, rows[start:stop])
        assert not results[0].due_detected
        assert results[1].nan_layers == ["0", "1", "2"] and results[1].inf_layers == []
        assert results[2].inf_layers[0] == "0" and results[2].due_detected

    def test_a_leaf_relu_turns_an_inf_row_into_zeros(self):
        model = nn.Sequential(nn.Identity(), nn.ReLU()).eval()
        rows = np.ones((3, 4), dtype=np.float32)
        rows[1] = -np.inf
        results = [MonitorResult(), MonitorResult(), MonitorResult()]
        monitor = InferenceMonitor(model)
        with monitor:
            monitor.split(results, [1, 1, 1])
            output = model(rows)
        assert (output[1] == 0).all()
        # Only a leaf hook sees the Inf: the ReLU's output has none.
        assert [result.inf_layers for result in results] == [[], ["0"], []]
        assert all(result.nan_layers == [] for result in results)

    def test_an_output_without_the_batch_axis_is_judged_whole(self):
        payload = np.array([1.0, np.inf], dtype=np.float32)
        model = nn.Sequential(TestListOutputMonitoring._DetectionHead(payload)).eval()
        results = [MonitorResult(), MonitorResult()]
        monitor = InferenceMonitor(model)
        with monitor:
            monitor.split(results, [2, 3])
            model(np.ones((5, 4), dtype=np.float32))
        assert [result.inf_layers for result in results] == [["0"], ["0"]]
