"""The import-layering lint: clean on the real tree, loud on violations."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_layering import check_layering, main  # noqa: E402


def _seed_tree(root: Path, package: str, body: str) -> None:
    pkg = root / "src" / "repro" / package
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "module.py").write_text(body)


class TestCheckLayering:
    def test_real_tree_is_clean(self):
        assert check_layering(REPO_ROOT) == []
        assert main([str(REPO_ROOT)]) == 0

    def test_substrate_importing_core_is_flagged(self, tmp_path):
        _seed_tree(tmp_path, "nn", "from repro.core import LoadDynamics\n")
        violations = check_layering(tmp_path)
        assert len(violations) == 1
        assert "nn layer must not import repro.core" in violations[0]
        assert main([str(tmp_path)]) == 1

    def test_lazy_function_level_import_is_flagged(self, tmp_path):
        # The DAG must hold at call time too, so imports hidden inside
        # function bodies are violations all the same.
        _seed_tree(
            tmp_path,
            "ml",
            "def f():\n    import repro.models.registry\n",
        )
        violations = check_layering(tmp_path)
        assert len(violations) == 1
        assert "ml layer must not import repro.models" in violations[0]

    def test_bayesopt_importing_core_is_flagged(self, tmp_path):
        # The search loop sits below the pipeline that drives it.
        _seed_tree(
            tmp_path,
            "bayesopt",
            "def f():\n    from repro.core.driver import SearchDriver\n",
        )
        violations = check_layering(tmp_path)
        assert len(violations) == 1
        assert "bayesopt layer must not import repro.core" in violations[0]

    def test_models_importing_cli_is_flagged(self, tmp_path):
        _seed_tree(tmp_path, "models", "from repro.cli import main\n")
        violations = check_layering(tmp_path)
        assert len(violations) == 1
        assert "models layer must not import repro.cli" in violations[0]

    def test_autoscale_importing_core_is_flagged(self, tmp_path):
        # Policies serve any predictor; they never reach into the pipeline.
        _seed_tree(
            tmp_path,
            "autoscale",
            "def f():\n    from repro.core import LoadDynamics\n"
            "from repro.serving.stream import StreamingServer\n",
        )
        violations = check_layering(tmp_path)
        assert len(violations) == 1
        assert "autoscale layer must not import repro.core" in violations[0]

    def test_models_may_import_core_and_substrate(self, tmp_path):
        _seed_tree(
            tmp_path,
            "models",
            "from repro.core.config import LSTMHyperparameters\n"
            "from repro.nn.network import LSTMRegressor\n",
        )
        assert check_layering(tmp_path) == []

    def test_relative_imports_within_layer_are_fine(self, tmp_path):
        _seed_tree(tmp_path, "nn", "from . import module2\nfrom .kernels import k\n")
        assert check_layering(tmp_path) == []
