"""Save/load trained :class:`~repro.nn.network.LSTMRegressor` models.

A deployed LoadDynamics predictor is just the best model found by the BO
loop; persisting it lets the auto-scaler process load it without
re-running the (hours-long, per the paper) optimization.  Format: a
single ``.npz`` holding the architecture config plus every weight array
in :attr:`LSTMRegressor.params` order.

Writes are atomic (:func:`repro.state.write_atomic`), so a crash
mid-save never leaves a half-written model where the serving process
expects a good one; a truncated or garbage file raises
:class:`CorruptModelError` with a usable message instead of a raw
numpy/zipfile exception.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.nn.network import LSTMRegressor
from repro.state import write_atomic

__all__ = ["save_regressor", "load_regressor", "CorruptModelError"]

_FORMAT_VERSION = 1


class CorruptModelError(ValueError):
    """A saved model is truncated, garbage, or structurally inconsistent.

    Raised by :func:`load_regressor` for a bad ``.npz``, and by
    :meth:`repro.serving.guard.GuardedPredictor.load` for any predictor
    directory that cannot be loaded back, which also sets
    ``directory``.
    """

    def __init__(self, message: str, directory: str | Path | None = None):
        super().__init__(message)
        self.directory = str(directory) if directory is not None else None


def save_regressor(model: LSTMRegressor, path: str | Path) -> Path:
    """Atomically write ``model`` to ``path`` (``.npz`` appended if missing).

    Readers see either the old file or the new one, never a torn write.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = {"version": _FORMAT_VERSION, "config": model.config()}
    arrays = {f"param_{i}": p for i, p in enumerate(model.params)}
    buf = io.BytesIO()
    np.savez(
        buf,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, buf.getvalue())
    return path


def load_regressor(path: str | Path) -> LSTMRegressor:
    """Reconstruct a model previously written by :func:`save_regressor`.

    Raises
    ------
    CorruptModelError
        When the file is not a readable archive or its contents don't
        reconstruct a consistent model (missing metadata/arrays, shape
        mismatches).  ``FileNotFoundError`` passes through unchanged.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            return _reconstruct(path, data)
    except CorruptModelError:
        raise
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as exc:
        raise CorruptModelError(
            f"{path} is not a readable model archive (truncated or corrupt): {exc}"
        ) from exc


def _reconstruct(path: Path, data) -> LSTMRegressor:
    if "meta" not in data:
        raise CorruptModelError(f"{path} has no 'meta' record")
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptModelError(f"{path} has a corrupt 'meta' record: {exc}") from exc
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {meta.get('version')}")
    try:
        cfg = meta["config"]
        model = LSTMRegressor(
            hidden_size=cfg["hidden_size"],
            num_layers=cfg["num_layers"],
            input_size=cfg["input_size"],
            seed=cfg["seed"],
            cell=cfg.get("cell", "lstm"),  # pre-GRU files default to LSTM
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelError(f"{path} has an invalid model config: {exc}") from exc
    params = model.params
    for i, p in enumerate(params):
        key = f"param_{i}"
        if key not in data:
            raise CorruptModelError(f"{path}: model file missing array {key}")
        saved = data[key]
        if saved.shape != p.shape:
            raise CorruptModelError(
                f"{path}: shape mismatch for {key}: "
                f"file {saved.shape} vs model {p.shape}"
            )
        p[...] = saved
    return model
