"""Seeded default BO path vs the recorded fixture.

Work on the search loop must leave the :class:`BayesianOptimizer`
proposal math untouched: same RNG stream, same candidate pool, same
L-BFGS-B polish, therefore the same suggested configs.
``scripts/make_bo_fixture.py`` recorded two seeded 18-trial runs into
``tests/data/bo_default_path.json``.

Those runs pass through scipy's L-BFGS-B and LAPACK, which round
differently across builds, and a closed loop amplifies one flipped
near-tie into every later trial.  So each claim is pinned at the
strength the arithmetic supports:

* **Replay (any host).**  Each recorded run is replayed step by step:
  ``suggest()``, then ``tell()`` of the *recorded* config and value, so
  every step's surrogate is fitted to the recorded history.  Each
  suggestion must equal the recorded config bit for bit.  The one
  declared tolerance class is a *near-tie*: under the surrogate that
  ``suggest()`` fitted at that step, the acquisition (expected
  improvement on the default path) of the recorded config and of this
  host's pick are positive and agree within ``NEAR_TIE_RTOL``.  Each
  recorded value must be its config's objective bit for bit, and the
  recorded best must be the optimizer's best record.
* **Closed-loop structure (any host).**  ``run()`` from the recorded
  seeds: the random initial design equals the recorded configs and
  value bits (PCG64 draws and elementwise numpy), every config is valid
  and new, every value is its config's objective, the incumbent after
  each trial is the running minimum, and the result is the minimum
  record.
* **Closed-loop bytes (recording host only).**  The whole trajectory
  equals the recording byte for byte, checked where the fixture's
  ``provenance`` equals this host's environment.

Regenerate the fixture only when the proposal math changes on purpose,
never to turn a host green.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bayesopt import BayesianOptimizer
from repro.core.config import search_space_for

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = json.loads((ROOT / "tests" / "data" / "bo_default_path.json").read_text())

#: Relative agreement of the acquisition at two configs for their swap
#: to count as a near-tie rather than a change of the proposal math.
NEAR_TIE_RTOL = 1e-4


def _load_script():
    path = ROOT / "scripts" / "make_bo_fixture.py"
    spec = importlib.util.spec_from_file_location("make_bo_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = _load_script()


def _recorded_here() -> bool:
    """Whether this host's environment is the fixture's recorded one."""
    env = SCRIPT.environment()
    recorded = {k: FIXTURE["provenance"].get(k) for k in env}
    return None not in recorded.values() and recorded == env


def _replay(run: dict) -> None:
    """Replay ``run`` step by step, failing on the first suggestion that
    is neither the recorded config nor a near-tie of it."""
    space = search_space_for("default", "paper")
    opt = BayesianOptimizer(space, seed=run["seed"])
    fitted = []
    fit_surrogate = opt._fit_surrogate

    def capture():
        gp = fit_surrogate()
        fitted.append(gp)
        return gp

    opt._fit_surrogate = capture
    for want in run["trials"]:
        step = f"seed={run['seed']} trial {want['iteration']}"
        fitted.clear()
        got = opt.suggest()
        gp_step = want["iteration"] >= opt.n_initial
        assert len(fitted) == int(gp_step), (
            f"{step}: suggest() fitted {len(fitted)} surrogates"
        )
        if got != want["config"]:
            assert gp_step, (
                f"{step}: the random initial design drew {got}, "
                f"recorded {want['config']}"
            )
            U = np.vstack([space.to_unit(want["config"]), space.to_unit(got)])
            acq_want, acq_got = opt._acquisition_values(fitted[0], U)
            assert (
                acq_want > 0
                and acq_got > 0
                and abs(acq_got - acq_want)
                <= NEAR_TIE_RTOL * max(acq_got, acq_want)
            ), (
                f"{step}: the default BO path proposed {got}, recorded "
                f"{want['config']}, and the acquisition does not tie them "
                f"({acq_got!r} vs {acq_want!r})"
            )
        assert want["value"] == SCRIPT.analytic_objective(space, want["config"])
        record = opt.tell(want["config"], want["value"])
        assert record.iteration == want["iteration"]
    assert opt.best_config == run["best_config"]
    assert opt.best_value == run["best_value"]


def test_default_path_configs_bit_identical():
    """Every replayed suggestion is the recorded config, or a near-tie."""
    for run in FIXTURE["runs"]:
        assert len(run["trials"]) == run["n_iters"]
        _replay(run)


@pytest.fixture(scope="module")
def closed_loop() -> dict:
    """``run()`` from each recorded seed, as the script records it."""
    out = {}
    for run in FIXTURE["runs"]:
        space = search_space_for("default", "paper")
        opt = BayesianOptimizer(space, seed=run["seed"])
        incumbents = []
        best = opt.run(
            lambda c: SCRIPT.analytic_objective(space, c),
            run["n_iters"],
            callback=lambda r: incumbents.append(opt.best_value),
        )
        out[run["seed"]] = (opt, best, incumbents)
    return out


def test_closed_loop_structure(closed_loop):
    """Host-independent properties of the closed loop ``run()`` drives."""
    for run in FIXTURE["runs"]:
        opt, best, incumbents = closed_loop[run["seed"]]
        space = opt.space
        history = opt.history
        assert [r.iteration for r in history] == list(range(run["n_iters"]))
        initial = run["trials"][: opt.n_initial]
        assert [(r.config, r.value.hex()) for r in history[: opt.n_initial]] == [
            (want["config"], want["value"].hex()) for want in initial
        ]
        configs = [r.config for r in history]
        for config in configs:
            space.validate(config)
        assert len({tuple(sorted(c.items())) for c in configs}) == len(configs)
        for r in history:
            assert r.value == SCRIPT.analytic_objective(space, r.config)
        assert best is min(history, key=lambda r: r.value)
        values = [r.value for r in history]
        assert incumbents == [min(values[: i + 1]) for i in range(len(values))]


@pytest.mark.skipif(
    not _recorded_here(),
    reason="closed-loop bytes hold on the recording host only; this "
    "host's numpy/scipy/BLAS/LAPACK differ from the fixture's provenance",
)
def test_closed_loop_bytes_on_recording_host(closed_loop):
    for run in FIXTURE["runs"]:
        opt, best, _ = closed_loop[run["seed"]]
        assert [
            {"iteration": r.iteration, "config": r.config, "value": r.value.hex()}
            for r in opt.history
        ] == [{**want, "value": want["value"].hex()} for want in run["trials"]]
        assert best.config == run["best_config"]
        assert best.value.hex() == run["best_value"].hex()
