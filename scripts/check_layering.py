#!/usr/bin/env python
"""Enforce the repo's import layering (DESIGN.md §9).

The package DAG, bottom to top::

    substrate   nn / ml / baselines / gp      (model math; no framework)
                bayesopt                      (search spaces, optimizers, loop)
    models      repro.models                  (families over the substrate)
    core        repro.core                    (the Fig. 6 pipeline stages)
    apps        cli / experiments             (entry points)

Rules checked here (AST-based, so strings/comments can't trip it and
lazy function-level imports are caught too — the DAG must hold at any
call time, not just import time):

* substrate packages must not import ``repro.core``, ``repro.models``,
  ``repro.cli``, or ``repro.experiments`` — they are leaf libraries;
* ``repro.bayesopt`` holds the one suggest → evaluate → tell loop that
  ``repro.core`` drives, so it is held to the substrate rule too: no
  ``repro.core``/``repro.models`` or entry points;
* ``repro.obs`` (including ``repro.obs.monitor``) sits below everything
  that feeds it telemetry: serving/core/models/cli/experiments are all
  off limits — monitors consume observations, they never reach back
  into the layers that produce them;
* ``repro.models`` and ``repro.serving`` must not import ``repro.cli``
  or ``repro.experiments`` — they are library code, not entry points;
* ``repro.traces`` is substrate too: no ``repro.core``/``repro.models``
  or entry points (its lazy hooks into ``repro.serving`` sanitization
  and ``repro.resilience`` fault sites are the sanctioned exceptions);
* ``repro.autoscale`` provisions from any predictor: no
  ``repro.core``/``repro.models`` or entry points (its policies reach
  the serve loop in ``repro.serving`` lazily, which is sanctioned).

Exit status 0 when clean; 1 with one line per violation otherwise.
Run directly or via ``scripts/ci.sh``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: package (relative to src/repro) -> module prefixes it must not import.
_FORBIDDEN: dict[str, tuple[str, ...]] = {
    "nn": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "ml": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "baselines": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "gp": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "bayesopt": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "models": ("repro.cli", "repro.experiments"),
    "serving": ("repro.cli", "repro.experiments"),
    "traces": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "autoscale": ("repro.core", "repro.models", "repro.cli", "repro.experiments"),
    "obs": (
        "repro.core",
        "repro.models",
        "repro.serving",
        "repro.cli",
        "repro.experiments",
    ),
}


def _imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """All (lineno, module) pairs imported anywhere in the file."""
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def _violates(module: str, forbidden: tuple[str, ...]) -> str | None:
    for prefix in forbidden:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


def check_layering(root: Path) -> list[str]:
    """Return one message per layering violation under ``root``/src/repro."""
    violations: list[str] = []
    pkg_root = root / "src" / "repro"
    for package, forbidden in sorted(_FORBIDDEN.items()):
        pkg_dir = pkg_root / package
        if not pkg_dir.is_dir():
            continue
        for path in sorted(pkg_dir.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError as exc:
                violations.append(f"{path}: unparseable ({exc})")
                continue
            for lineno, module in _imported_modules(tree):
                hit = _violates(module, forbidden)
                if hit is not None:
                    rel = path.relative_to(root)
                    violations.append(
                        f"{rel}:{lineno}: {package} layer must not import "
                        f"{hit} (imports {module})"
                    )
    return violations


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    violations = check_layering(root)
    if violations:
        for message in violations:
            sys.stderr.write(message + "\n")
        sys.stderr.write(f"{len(violations)} layering violation(s)\n")
        return 1
    sys.stderr.write("layering OK\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
