"""Analytic "pre-training" of classifier heads.

The paper's campaigns start from *pre-trained* torchvision models.  Offline,
no trained weights can be downloaded, and training deep CNNs in pure numpy
would dominate the runtime budget.  Instead the zoo models are turned into
usable classifiers by keeping their random convolutional feature extractor
and fitting only the final linear layer analytically (ridge regression onto
one-hot labels over a calibration split of the synthetic dataset).  Random
convolutional features are a well-known strong baseline on synthetic,
prototype-based data, so the fitted models reach high fault-free accuracy —
which is what makes SDE rates meaningful (a fault must flip a *correct*
decision for the campaign to resemble the paper's setting).

The fit runs the whole backbone over the calibration split, which is every
image a campaign on the same dataset will see.  It keeps what that pass
computed (:class:`~repro.alficore.goldencache.HeadFeatures`, one per fitted
model object): the final layer's input per image, keyed by the image's
content, for the images whose every leaf output row was finite, and the
model's fingerprint once the head is written.  A cache-less campaign on that
same object (:class:`~repro.alficore.campaign.core.CampaignCore`) then runs
its golden passes as the checkpointed prefix its faulty passes need plus the
head, from those features, instead of the whole backbone again.
"""

from __future__ import annotations

import numpy as np

from repro.alficore.digests import model_fingerprint
from repro.alficore.goldencache import HeadFeatures, image_key
from repro.alficore.monitoring import finite_rows, leaf_modules
from repro.nn import Linear
from repro.nn.module import Module
from repro.nn.record import model_record, output_shapes


def _find_final_linear(model: Module) -> tuple[Module, str, Linear]:
    """Locate the last Linear layer of the model and its parent module."""
    last: tuple[Module, str, Linear] | None = None
    for name, module in model.named_modules():
        if isinstance(module, Linear):
            parent_path, _, child_name = name.rpartition(".")
            parent = model.get_submodule(parent_path)
            last = (parent, child_name, module)
    if last is None:
        raise ValueError("model contains no Linear layer to fit")
    return last


def extract_penultimate_features(model: Module, images: np.ndarray) -> np.ndarray:
    """Run the model and capture the input features of its final Linear layer."""
    _, _, final_linear = _find_final_linear(model)
    captured: dict[str, np.ndarray] = {}

    def hook(module, inputs, output):
        captured["features"] = np.asarray(inputs[0])
        return None

    handle = final_linear.register_forward_hook(hook)
    try:
        model(np.asarray(images, dtype=np.float32))
    finally:
        handle.remove()
    if "features" not in captured:
        raise RuntimeError("final Linear layer was not executed during the forward pass")
    return captured["features"]


def fit_classifier_head(
    model: Module,
    dataset,
    num_classes: int,
    calibration_size: int | None = None,
    ridge: float = 1e-3,
    batch_size: int = 16,
) -> Module:
    """Fit the final Linear layer of ``model`` on a calibration split.

    Args:
        model: a classification model from the zoo (modified in place and
            also returned for chaining).
        dataset: map-style dataset yielding ``(image, label)``.
        num_classes: number of classes (output width of the final layer).
        calibration_size: how many samples to use; defaults to the whole set.
        ridge: L2 regularisation strength of the closed-form fit.
        batch_size: feature-extraction batch size.

    Returns:
        The same model instance with a fitted final layer.  The features
        of the calibration images are kept for this model object (see the
        module docstring); a copy of the model does not share them.

    Raises:
        ValueError: when some calibration image's features hold a NaN or an
            Inf (the closed-form fit would write a NaN head).
    """
    size = len(dataset) if calibration_size is None else min(calibration_size, len(dataset))
    if size <= 0:
        raise ValueError("calibration split is empty")
    # Inference mode: dropout layers must be inactive both while extracting
    # calibration features and during the later fault injection campaigns.
    model.eval()
    parent, child_name, final_linear = _find_final_linear(model)
    if final_linear.out_features != num_classes:
        raise ValueError(
            f"final layer has {final_linear.out_features} outputs, expected {num_classes}"
        )
    images = []
    labels = []
    for index in range(size):
        image, label = dataset[index]
        images.append(np.asarray(image, dtype=np.float32))
        labels.append(int(label))
    received, finite = _calibration_features(model, images, batch_size)
    non_finite = int((~np.isfinite(received.reshape(size, -1)).all(axis=1)).sum())
    if non_finite:
        raise ValueError(
            f"{non_finite} of {size} calibration images have non-finite features "
            "(NaN/Inf before the final Linear layer); the head cannot be fitted"
        )
    features = received.astype(np.float64)
    targets = np.zeros((size, num_classes), dtype=np.float64)
    targets[np.arange(size), labels] = 1.0

    # Standardise features before the fit (deep random feature extractors can
    # have wildly different per-feature scales); the normalisation is folded
    # back into the fitted weights afterwards so inference stays unchanged.
    feature_mean = features.mean(axis=0)
    feature_std = features.std(axis=0)
    feature_std = np.where(feature_std < 1e-6, 1.0, feature_std)
    normalized = (features - feature_mean) / feature_std

    # Closed-form ridge regression with a bias column.
    augmented = np.concatenate([normalized, np.ones((size, 1))], axis=1)
    gram = augmented.T @ augmented + ridge * np.eye(augmented.shape[1])
    solution = np.linalg.solve(gram, augmented.T @ targets)
    weight_normalized = solution[:-1].T  # (num_classes, features)
    bias_normalized = solution[-1]

    weight = weight_normalized / feature_std[None, :]
    bias = bias_normalized - weight @ feature_mean

    # Scale the logits so softmax saturates on correct decisions; this keeps
    # golden top-1 decisions stable against numerically tiny perturbations.
    scale = 8.0 / max(np.abs(weight @ features.T + bias[:, None]).max(), 1e-6)
    final_linear.weight.copy_((weight * scale).astype(np.float32))
    if final_linear.bias is not None:
        final_linear.bias.copy_((bias * scale).astype(np.float32))
    del parent, child_name
    model_record(model).head_features = HeadFeatures(
        head=final_linear,
        features={image_key(image): row for image, row, ok in zip(images, received, finite) if ok},
        fingerprint=model_fingerprint(model),
    )
    return model


def _calibration_features(
    model: Module, images: list[np.ndarray], batch_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The final Linear's input for every image, and per image whether every
    leaf's output row was finite (what the campaign monitor would find).

    The same leaf hooks note every leaf's output shape in the model's
    record, per full batch, so a fault injector profiling the model at this
    batch size needs no probe pass of its own.
    """
    flags = np.ones(0, dtype=bool)

    def scanner(name: str):
        def scan(module, inputs, output):
            np.logical_and(flags, finite_rows(output, len(flags)), out=flags)
            if isinstance(output, np.ndarray):
                shapes[name] = output.shape
            return None

        return scan

    learned = output_shapes(model, batch_size, images[0].shape)
    handles = [module.register_forward_hook(scanner(name)) for name, module in leaf_modules(model)]
    features, finite = [], []
    try:
        for start in range(0, len(images), batch_size):
            batch = np.stack(images[start : start + batch_size])
            flags = np.ones(len(batch), dtype=bool)
            shapes = learned if len(batch) == batch_size else {}
            features.append(extract_penultimate_features(model, batch))
            finite.append(flags)
    finally:
        for handle in handles:
            handle.remove()
    return np.concatenate(features, axis=0), np.concatenate(finite)


def pretrained_classifier(
    factory,
    dataset,
    num_classes: int,
    calibration_size: int | None = None,
    **factory_kwargs,
) -> Module:
    """Build a zoo model and fit its classifier head in one call."""
    model = factory(num_classes=num_classes, **factory_kwargs)
    return fit_classifier_head(model, dataset, num_classes, calibration_size)
