"""Hyperparameters, Table III search spaces, and framework settings.

The paper tunes exactly four hyperparameters per workload
(Section III-A): history length ``n``, cell-memory size ``s``, LSTM
layer count, and training batch size.  Table III defines the box ranges:

==========  ============  ========  ========  ===========
Workload    Hist Len (n)  C size    Layers #  Batch #
==========  ============  ========  ========  ===========
Wiki/LCG/
Azure/
Google      [1–512]       [1–100]   [1–5]     [16–1024]
Facebook    [1–100]       [1–50]    [1–5]     [8–128]
==========  ============  ========  ========  ===========

``budget="paper"`` reproduces those ranges.  ``budget="reduced"``
shrinks them proportionally for CI-scale runs (the paper's budget —
maxIters=100 BO iterations, weeks of brute force — is not reproducible
in minutes; see DESIGN.md §6).  The code paths are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bayesopt.space import CategoricalParam, IntParam, SearchSpace

__all__ = [
    "LSTMHyperparameters",
    "GenericHyperparameters",
    "FrameworkSettings",
    "search_space_for",
    "history_range",
    "BUDGETS",
]

BUDGETS = ("paper", "reduced", "tiny")

#: Table III box ranges, keyed by (budget, is_facebook):
#: (history_len, cell_size, num_layers, batch_size).
_TABLE3_RANGES = {
    ("paper", False): ((1, 512), (1, 100), (1, 5), (16, 1024)),
    ("paper", True): ((1, 100), (1, 50), (1, 5), (8, 128)),
    ("reduced", False): ((1, 64), (1, 32), (1, 2), (16, 128)),
    ("reduced", True): ((1, 32), (1, 24), (1, 2), (8, 64)),
    ("tiny", False): ((1, 8), (1, 8), (1, 2), (4, 16)),
    ("tiny", True): ((1, 8), (1, 8), (1, 2), (4, 16)),
}


def _is_facebook(trace_name: str) -> bool:
    return trace_name.lower() in ("fb", "facebook")


def history_range(trace_name: str = "default", budget: str = "paper") -> tuple[int, int]:
    """Table III ``history_len`` box for a trace/budget.

    The history length is the one hyperparameter *every* model family
    tunes (Eq. 1 windowing is universal); non-NN families reuse this
    range so their windows stay comparable to the recurrent families'.
    """
    if budget not in BUDGETS:
        raise ValueError(f"budget must be one of {BUDGETS}")
    return _TABLE3_RANGES[(budget, _is_facebook(trace_name))][0]


@dataclass(frozen=True)
class LSTMHyperparameters:
    """One point in the Table III space."""

    history_len: int
    cell_size: int
    num_layers: int
    batch_size: int

    def __post_init__(self):
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if self.cell_size < 1:
            raise ValueError("cell_size must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def as_dict(self) -> dict:
        return {
            "history_len": self.history_len,
            "cell_size": self.cell_size,
            "num_layers": self.num_layers,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LSTMHyperparameters":
        return cls(
            history_len=int(d["history_len"]),
            cell_size=int(d["cell_size"]),
            num_layers=int(d["num_layers"]),
            batch_size=int(d["batch_size"]),
        )


@dataclass(frozen=True)
class GenericHyperparameters:
    """Hyperparameters of a non-NN model family.

    Every family tunes ``history_len`` (Eq. 1 windowing is universal);
    the remaining dimensions vary per family and are carried as sorted
    ``(name, value)`` pairs, keeping the dataclass hashable and
    order-independent.
    """

    history_len: int
    extras: tuple = ()

    def __post_init__(self):
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")

    def as_dict(self) -> dict:
        out = {"history_len": self.history_len}
        out.update(dict(self.extras))
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "GenericHyperparameters":
        return cls(
            history_len=int(d["history_len"]),
            extras=tuple(sorted((k, v) for k, v in d.items() if k != "history_len")),
        )


def search_space_for(
    trace_name: str = "default",
    budget: str = "paper",
    extended: bool = False,
    family: str = "lstm",
) -> SearchSpace:
    """Search space for a trace/budget, per model family.

    For the default recurrent families this is the Table III space
    (Facebook gets the small ranges).  ``budget="reduced"`` caps
    history/cell/layers/batch so a full BO run finishes in
    seconds-to-minutes on a laptop; ``"tiny"`` is for unit tests.
    History length and batch size use log-scaled encodings — their
    paper ranges span 2–3 orders of magnitude.

    ``extended=True`` adds the Section V "other hyperparameters" — the
    training loss and the optimization algorithm — as categorical
    dimensions.  The paper observed no accuracy gain from these on its
    workloads but notes they "may affect the accuracy ... applied to
    other workloads"; the optimization process handles them unchanged.

    ``family`` other than ``"lstm"``/``"gru"`` delegates to that
    family's own :meth:`~repro.models.base.ModelFamily.search_space`
    from the :mod:`repro.models` registry.
    """
    if family not in ("lstm", "gru"):
        # Delegate to the family's own space.  Imported lazily: config is
        # a leaf module the model families themselves depend on.
        from repro.models import get_family

        return get_family(family).search_space(trace_name, budget, extended=extended)
    if budget not in BUDGETS:
        raise ValueError(f"budget must be one of {BUDGETS}")
    hist, cell, layers, batch = _TABLE3_RANGES[(budget, _is_facebook(trace_name))]
    params: list = [
        IntParam("history_len", *hist, log=True),
        IntParam("cell_size", *cell),
        IntParam("num_layers", *layers),
        IntParam("batch_size", *batch, log=True),
    ]
    if extended:
        params.append(CategoricalParam("loss", ("mse", "mae", "huber")))
        params.append(CategoricalParam("optimizer", ("adam", "rmsprop", "sgd")))
    return SearchSpace(params)


@dataclass
class FrameworkSettings:
    """Knobs of the Fig. 6 workflow outside the tuned hyperparameters.

    Paper values: ``max_iters=100`` BO iterations, 60/20/20 split, MSE
    loss, Adam.  Training-loop settings (epochs, lr, patience) are the
    fixed "other hyperparameters" of Section V — the paper found tuning
    them did not help its workloads, so they are constants here too.
    """

    max_iters: int = 100
    n_initial: int = 5
    train_frac: float = 0.6
    val_frac: float = 0.2
    epochs: int = 60
    lr: float = 1e-3
    patience: int = 8
    clip_norm: float = 5.0
    optimizer: str = "adam"
    loss: str = "mse"
    acquisition: str = "ei"
    seed: int = 0
    #: Training pairs needed for a config to be considered viable; BO
    #: receives a large penalty for configs whose history length leaves
    #: fewer windows than this.
    min_train_windows: int = 8
    #: Optional cap on training windows per trial (most recent kept) to
    #: bound trial cost on very long 5-minute traces.
    max_train_windows: int | None = 4000
    #: Per-trial wall-clock deadline in seconds (``None`` = unlimited).
    #: A trial past the deadline is recorded infeasible with reason
    #: ``trial_timeout`` instead of stalling the whole run.
    trial_timeout_s: float | None = None
    #: Extra training attempts (with a fresh weight seed and backed-off
    #: epochs/patience) when a trial diverges; 0 disables retries.
    max_retries: int = 1
    #: Epochs/patience multiplier per retry attempt.
    retry_backoff: float = 0.5
    #: Failures (divergence/timeout) after which a config is quarantined
    #: and never suggested again; ``0`` disables the quarantine.
    quarantine_after: int = 3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.train_frac < 1.0 or not 0.0 < self.val_frac < 1.0:
            raise ValueError("fractions must be in (0, 1)")
        if self.train_frac + self.val_frac >= 1.0:
            raise ValueError("train+val fractions must leave a test split")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ValueError("trial_timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 < self.retry_backoff <= 1.0:
            raise ValueError("retry_backoff must be in (0, 1]")
        if self.quarantine_after < 0:
            raise ValueError("quarantine_after must be >= 0")

    @classmethod
    def reduced(cls, **overrides) -> "FrameworkSettings":
        """CI-scale settings: fewer BO iterations and epochs (DESIGN.md §6).

        ``max_train_windows`` is capped harder than the paper-scale
        default so the 5-minute configurations (6k intervals) stay
        trainable on a single CPU core.
        """
        defaults = dict(
            max_iters=12, n_initial=4, epochs=25, patience=5,
            max_train_windows=1500,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def tiny(cls, **overrides) -> "FrameworkSettings":
        """Unit-test settings: smallest run that still exercises every path."""
        defaults = dict(
            max_iters=3, n_initial=2, epochs=4, patience=2, min_train_windows=4
        )
        defaults.update(overrides)
        return cls(**defaults)
