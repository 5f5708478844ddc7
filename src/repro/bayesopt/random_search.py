"""Random search comparator (paper Section III-A).

The paper found random search reaches similar accuracy to BO but needs
more time; it shares the ask/tell/run interface (and the
:class:`~repro.bayesopt.optimizer.SearchOptimizer` bookkeeping) of
:class:`~repro.bayesopt.optimizer.BayesianOptimizer` so the ablation
bench can swap optimizers without touching the evaluation loop.
"""

from __future__ import annotations

import numpy as np

from repro.bayesopt.optimizer import SearchOptimizer
from repro.bayesopt.space import SearchSpace

__all__ = ["RandomSearch"]


class RandomSearch(SearchOptimizer):
    """Uniform random sampling over a :class:`SearchSpace`."""

    name = "random"

    def __init__(self, space: SearchSpace, seed: int = 0, avoid_duplicates: bool = True):
        super().__init__(space)
        self._rng = np.random.default_rng(seed)
        self.avoid_duplicates = bool(avoid_duplicates)

    # ------------------------------------------------------------------
    # resilience hooks (same contract as BayesianOptimizer)
    # ------------------------------------------------------------------
    def search_state(self) -> dict:
        return {"rng": self._rng.bit_generator.state}

    def restore_search_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]

    def suggest(self) -> dict:
        """Draw a uniform config (retrying a few times to dodge repeats
        and quarantined configs)."""
        retries = 16 if (self.avoid_duplicates or self._excluded is not None) else 1
        for _ in range(retries):
            config = self.space.sample(self._rng, 1)[0]
            if self._excluded is not None and self._excluded(config):
                continue
            if not self.avoid_duplicates or not self._explored(config):
                return config
        return config
    def suggest_batch(self, q: int) -> list[dict]:
        """Draw ``q`` configs for concurrent evaluation.

        Deduplication sees history *plus* the points already in this
        batch, which is exactly what serial ``suggest`` would have seen
        at the same trial index — the RNG stream (and therefore every
        proposed config) is identical to ``q`` serial suggest/tell
        rounds.  ``suggest_batch(1)`` reduces exactly to
        :meth:`suggest`.
        """
        if q < 1:
            raise ValueError("batch size q must be >= 1")
        self._pending_batch = []
        if q == 1:
            return [self.suggest()]
        configs: list[dict] = []
        for _ in range(q):
            config = self.suggest()
            configs.append(config)
            self._pending_batch.append(config)
        return configs
