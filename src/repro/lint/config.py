"""``[tool.repro-lint]`` configuration from ``pyproject.toml``.

Read with :mod:`tomllib` (stdlib); absence of the file or the table means
all defaults.  Recognized keys::

    [tool.repro-lint]
    baseline = "lint-baseline.json"   # project-root-relative path
    disable = ["RL402"]               # rule codes disabled globally
    select = []                       # if non-empty, ONLY these codes run

CLI flags (``--baseline``, ``--select``, ``--disable``) override the
file.  The project root is found by walking up from the first lint
target until a ``pyproject.toml`` or ``.git`` appears.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - 3.10 fallback, untested in CI
    tomllib = None

from repro.lint.baseline import DEFAULT_BASELINE_NAME

TABLE = "repro-lint"


@dataclass
class LintConfig:
    project_root: Path
    baseline_path: Path
    disable: frozenset[str] = frozenset()
    select: frozenset[str] = frozenset()

    def enabled_codes(self, all_codes: list[str]) -> set[str]:
        codes = set(self.select) if self.select else set(all_codes)
        return {c for c in codes if c not in self.disable}


def find_project_root(start: str | Path) -> Path:
    """Nearest ancestor of ``start`` containing pyproject.toml or .git."""
    p = Path(start).resolve()
    if p.is_file():
        p = p.parent
    for candidate in (p, *p.parents):
        if (candidate / "pyproject.toml").is_file() or (candidate / ".git").exists():
            return candidate
    return p


def load_config(project_root: str | Path) -> LintConfig:
    root = Path(project_root)
    table: dict[str, object] = {}
    pyproject = root / "pyproject.toml"
    if pyproject.is_file() and tomllib is not None:
        with pyproject.open("rb") as fh:
            data = tomllib.load(fh)
        table = data.get("tool", {}).get(TABLE, {})
    baseline = table.get("baseline", DEFAULT_BASELINE_NAME)
    return LintConfig(
        project_root=root,
        baseline_path=root / str(baseline),
        disable=frozenset(str(c) for c in table.get("disable", [])),
        select=frozenset(str(c) for c in table.get("select", [])),
    )
