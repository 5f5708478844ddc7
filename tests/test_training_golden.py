"""``LSTMRegressor.fit`` reproduces recorded training runs bit for bit.

``tests/data/training_golden.json`` (written by
``scripts/make_pipeline_fixtures.py training``) holds, for a grid over
input width, depth, hidden size, every optimizer x loss pair, a ragged
final batch and early stopping with best-weight restore, the trained
parameters and the per-epoch loss and gradient-norm histories as hex
float64.  Training is elementwise numpy plus small GEMMs, so this is
the bit-exact fixture class: the comparison is on raw bytes, and the
recording's bit generator must match the one generating the inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn.network import LSTMRegressor

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "training_golden.json").read_text()
)


def hex64(a: np.ndarray) -> str:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


def training_data(case: dict) -> tuple[np.ndarray, ...]:
    """Must match ``training_data`` in scripts/make_pipeline_fixtures.py."""
    rng = np.random.default_rng(case["data_seed"])
    shape = (case["n_train"] + case["n_val"], case["T"], case["input_size"])
    x = rng.uniform(0.0, 1.0, size=shape)
    y = x[:, -3:, 0].mean(axis=1)
    n = case["n_train"]
    return x[:n], y[:n], x[n:], y[n:]


def test_recorded_with_this_bit_generator():
    assert GOLDEN["bit_generator"] == type(
        np.random.default_rng().bit_generator
    ).__name__


def test_grid_covers_the_kernel_paths():
    cases = GOLDEN["cases"]
    assert {c["input_size"] for c in cases} == {1, 4}
    assert {c["num_layers"] for c in cases} == {1, 2, 3}
    assert {c["hidden_size"] for c in cases} == {3, 8}
    assert {(c["optimizer"], c["loss"]) for c in cases} == {
        (o, l) for o in ("adam", "rmsprop", "sgd") for l in ("mse", "mae", "huber")
    }
    assert all(c["n_train"] % c["batch_size"] for c in cases)  # ragged batch
    assert any(
        c["stopped_early"] and len(c["train_loss"]) < c["epochs"]
        and c["best_epoch"] < len(c["train_loss"]) - 1
        for c in cases
    )


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
def test_fit_bytes(case):
    x, y, vx, vy = training_data(case)
    model = LSTMRegressor(hidden_size=case["hidden_size"],
                          num_layers=case["num_layers"],
                          input_size=case["input_size"], seed=case["seed"])
    history = model.fit(x, y, epochs=case["epochs"],
                        batch_size=case["batch_size"], lr=case["lr"],
                        optimizer=case["optimizer"], loss=case["loss"],
                        validation=(vx, vy), patience=case["patience"])
    for key in ("train_loss", "val_loss", "grad_norm"):
        got = [float(v).hex() for v in getattr(history, key)]
        assert got == case[key], (case["name"], key)
    assert history.best_epoch == case["best_epoch"]
    assert history.stopped_early == case["stopped_early"]
    assert [hex64(p) for p in model.params] == case["params"], case["name"]
