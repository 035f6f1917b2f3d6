"""Analyzer configuration, read from ``[tool.repro-lint]`` in pyproject.toml.

The contract lives next to the ruff/mypy configuration so that one file
declares every gate the tree must pass.  On Python 3.11+ the section is
parsed with :mod:`tomllib`; on 3.10 (still in the CI matrix) a minimal
fallback parser handles the subset this section uses — string scalars and
(nested) arrays of strings — so the analyzer works on every supported
interpreter without adding a dependency.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.common.errors import ConfigurationError

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None  # type: ignore[assignment]

#: The pyproject table holding the analyzer configuration.
CONFIG_TABLE = ("tool", "repro-lint")


@dataclass(frozen=True)
class LintConfig:
    """Parsed ``[tool.repro-lint]`` contract.

    Parameters
    ----------
    package:
        Root package name the layering contract governs (``"repro"``).
    layers:
        Declared layer order, lowest first; each entry lists the top-level
        sub-packages of that layer.  A module may import its own layer or
        lower.
    fingerprint_roots:
        Dataclass names whose reachable frozen dataclasses must have
        canonicalizable fields (RPR004).
    exclude:
        Directory names skipped when a directory argument is expanded
        (fixture corpora of deliberately-bad snippets).  Files named
        directly on the command line are always linted.
    """

    package: str = "repro"
    layers: Tuple[Tuple[str, ...], ...] = ()
    fingerprint_roots: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def layer_of(self, subpackage: str) -> Optional[int]:
        """The layer index of a top-level sub-package, or ``None``."""
        for index, layer in enumerate(self.layers):
            if subpackage in layer:
                return index
        return None

    def layer_order_text(self) -> str:
        """The declared order as a one-line arrow diagram."""
        return " -> ".join("/".join(layer) for layer in self.layers)


#: Contract used when no pyproject.toml declares one (fixture trees).
DEFAULT_CONFIG = LintConfig()


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parse the ``[tool.repro-lint]`` table from *text* without tomllib.

    Handles exactly the subset the contract uses: a ``[tool.repro-lint]``
    header followed by ``key = <value>`` lines where ``<value>`` is a
    string or a (possibly multi-line, possibly nested) array of strings.
    TOML's syntax for those values is also valid Python literal syntax,
    so each balanced right-hand side funnels through ``ast.literal_eval``.
    """
    table: Dict[str, Any] = {}
    in_section = False
    pending_key: Optional[str] = None
    pending_value = ""

    def flush() -> None:
        nonlocal pending_key, pending_value
        if pending_key is None:
            return
        try:
            table[pending_key] = ast.literal_eval(pending_value.strip())
        except (SyntaxError, ValueError) as error:
            raise ConfigurationError(
                f"cannot parse [tool.repro-lint] value for {pending_key!r}: "
                f"{error}"
            ) from None
        pending_key, pending_value = None, ""

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if line.startswith("[") and pending_key is None:
            in_section = line == "[tool.repro-lint]"
            continue
        if not in_section:
            continue
        if pending_key is not None:
            pending_value += " " + line
        else:
            if not line or line.startswith("#"):
                continue
            key, separator, value = line.partition("=")
            if not separator:
                raise ConfigurationError(
                    f"cannot parse [tool.repro-lint] line {raw_line!r}"
                )
            pending_key = key.strip()
            pending_value = value.strip()
        if pending_value.count("[") == pending_value.count("]"):
            flush()
    flush()
    return table


def _load_table(path: Path) -> Dict[str, Any]:
    text = path.read_text()
    if tomllib is not None:
        data: Dict[str, Any] = tomllib.loads(text)
        for key in CONFIG_TABLE:
            data = data.get(key, {})
            if not isinstance(data, dict):
                return {}
        return data
    return _parse_toml_subset(text)


def _string_tuple(value: Any, key: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigurationError(
            f"[tool.repro-lint] {key} must be an array of strings"
        )
    return tuple(value)


def load_config(pyproject: Union[str, Path]) -> LintConfig:
    """Load the analyzer contract from a pyproject.toml file."""
    path = Path(pyproject)
    if not path.is_file():
        raise ConfigurationError(f"no pyproject.toml at {path}")
    table = _load_table(path)
    layers_raw = table.get("layers", [])
    if not isinstance(layers_raw, list):
        raise ConfigurationError(
            "[tool.repro-lint] layers must be an array of arrays of strings"
        )
    layers = tuple(
        _string_tuple(layer, f"layers[{index}]")
        for index, layer in enumerate(layers_raw)
    )
    seen: Dict[str, int] = {}
    for index, layer in enumerate(layers):
        for name in layer:
            if name in seen:
                raise ConfigurationError(
                    f"[tool.repro-lint] package {name!r} appears in both "
                    f"layer {seen[name]} and layer {index}"
                )
            seen[name] = index
    package = table.get("package", "repro")
    if not isinstance(package, str) or not package:
        raise ConfigurationError(
            "[tool.repro-lint] package must be a non-empty string"
        )
    return LintConfig(
        package=package,
        layers=layers,
        fingerprint_roots=_string_tuple(
            table.get("fingerprint-roots", []), "fingerprint-roots"
        ),
        exclude=_string_tuple(table.get("exclude", []), "exclude"),
    )


def discover_config(start: Union[str, Path]) -> LintConfig:
    """Find and load the nearest pyproject.toml at or above *start*.

    Falls back to :data:`DEFAULT_CONFIG` when no ancestor declares one, so
    the analyzer still runs (with layering/fingerprint checks inert) on a
    bare directory of snippets.
    """
    directory = Path(start).resolve()
    if directory.is_file():
        directory = directory.parent
    for candidate_dir in (directory, *directory.parents):
        candidate = candidate_dir / "pyproject.toml"
        if candidate.is_file():
            return load_config(candidate)
    return DEFAULT_CONFIG
