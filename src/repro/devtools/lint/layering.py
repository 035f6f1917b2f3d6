"""The import-layering contract checker (RPR008/RPR009).

Collects the *runtime* imports of the package — imports inside
``if TYPE_CHECKING:`` blocks never execute, so they are exempt — then
checks two properties:

* every import, module-level or deferred into a function body, points at
  the importer's own layer or lower, per the ``layers`` declaration in
  pyproject.toml (RPR008);
* the module-level graph is acyclic (RPR009), reported per
  strongly-connected component so one cycle produces one coherent set of
  findings.  A deferred same-layer import may break a cycle.

The package root modules (``repro/__init__.py``, ``repro/__main__.py``)
are the public facade re-exporting every layer and are exempt from the
order check (they still participate in cycle detection).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.rules import Finding


def module_name_for(path: Path, package: str) -> Optional[str]:
    """Resolve *path* to its dotted module under *package*, or ``None``.

    The module root is the **last** path segment equal to *package* (so a
    checkout at ``/home/repro/src/repro/...`` resolves correctly).
    """
    parts = path.parts
    indices = [i for i, part in enumerate(parts) if part == package]
    if not indices:
        return None
    tail = parts[indices[-1]:]
    if not tail[-1].endswith(".py"):
        return None
    segments = list(tail[:-1]) + [tail[-1][: -len(".py")]]
    if segments[-1] == "__init__":
        segments.pop()
    return ".".join(segments)


@dataclass
class ModuleImports:
    """Runtime imports of one module."""

    module: str
    path: str
    #: imported module -> first module-level line importing it
    edges: Dict[str, int] = field(default_factory=dict)
    #: imported module -> first line importing it inside a function body
    deferred: Dict[str, int] = field(default_factory=dict)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_relative(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute target of a relative ``from . import x`` inside *module*."""
    base = module.split(".")
    # level=1 is the containing package: the module itself if this is an
    # __init__.py, its parent otherwise.
    drop = node.level - 1 if is_package else node.level
    if drop > len(base):
        return None
    prefix = base[: len(base) - drop] if drop else base
    if node.module:
        prefix = prefix + node.module.split(".")
    return ".".join(prefix) if prefix else None


def collect_runtime_imports(
    tree: ast.Module,
    module: str,
    path: str,
    package: str,
    *,
    is_package: bool = False,
) -> ModuleImports:
    """Runtime imports of *tree* inside *package*: module level (class
    bodies included) in ``edges``, function bodies in ``deferred``."""
    imports = ModuleImports(module=module, path=path)
    prefix = package + "."

    def record(target: Optional[str], line: int, into: Dict[str, int]) -> None:
        if target is None:
            return
        if target == package or target.startswith(prefix):
            into.setdefault(target, line)

    def walk(statements: Sequence[ast.stmt], into: Dict[str, int]) -> None:
        for statement in statements:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    record(alias.name, statement.lineno, into)
            elif isinstance(statement, ast.ImportFrom):
                if statement.level:
                    record(
                        _resolve_relative(module, is_package, statement),
                        statement.lineno,
                        into,
                    )
                else:
                    record(statement.module, statement.lineno, into)
            elif isinstance(statement, ast.If):
                if not _is_type_checking_test(statement.test):
                    walk(statement.body, into)
                walk(statement.orelse, into)
            elif isinstance(statement, ast.Try):
                walk(statement.body, into)
                for handler in statement.handlers:
                    walk(handler.body, into)
                walk(statement.orelse, into)
                walk(statement.finalbody, into)
            elif isinstance(statement, (ast.With, ast.For, ast.While)):
                walk(statement.body, into)
                walk(getattr(statement, "orelse", []), into)
            elif isinstance(statement, ast.ClassDef):
                walk(statement.body, into)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(statement.body, imports.deferred)
    walk(tree.body, imports.edges)
    return imports


def _top_subpackage(module: str, package: str) -> Optional[str]:
    """``repro.pmu.dvfs`` -> ``pmu``; the root itself -> ``None``."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != package:
        return None
    if parts[1] == "__main__":
        return None
    return parts[1]


def _strongly_connected(
    graph: Dict[str, Set[str]]
) -> List[List[str]]:
    """Tarjan SCC (iterative); returns components with a real cycle."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            successors = sorted(graph.get(node, ()))
            advanced = False
            for position in range(edge_index, len(successors)):
                successor = successors[position]
                if successor not in graph:
                    continue
                if successor not in index:
                    work[-1] = (node, position + 1)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph.get(node, ()):
                    components.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return components


def check_layering(
    modules: Sequence[ModuleImports], config: LintConfig
) -> Dict[str, List[Finding]]:
    """RPR008/RPR009 over the collected module graph: path -> findings."""
    findings: Dict[str, List[Finding]] = {}
    if not config.layers:
        return findings
    package = config.package
    by_name = {entry.module: entry for entry in modules}
    reported_packages: Set[str] = set()

    for entry in modules:
        importer_pkg = _top_subpackage(entry.module, package)
        if importer_pkg is None:
            continue  # the root facade is exempt from the order check
        importer_layer = config.layer_of(importer_pkg)
        if importer_layer is None:
            if importer_pkg not in reported_packages:
                reported_packages.add(importer_pkg)
                findings.setdefault(entry.path, []).append(
                    Finding(
                        1,
                        0,
                        "RPR008",
                        f"package {importer_pkg!r} is not assigned a layer "
                        "in [tool.repro-lint].layers",
                    )
                )
            continue
        # A module-level import's line outranks a deferred one's.
        for target, line in sorted({**entry.deferred, **entry.edges}.items()):
            target_pkg = _top_subpackage(target, package)
            if target_pkg is None:
                if target == package and target in entry.edges:
                    # Importing the facade from inside pulls in every layer
                    # (a function body only runs once the root has loaded).
                    findings.setdefault(entry.path, []).append(
                        Finding(
                            line,
                            0,
                            "RPR008",
                            f"module {entry.module} imports the package "
                            f"root {package!r}, which re-exports every "
                            "layer; import the concrete module instead",
                        )
                    )
                continue
            target_layer = config.layer_of(target_pkg)
            if target_layer is None:
                continue  # reported once via the importer check above
            if target_layer > importer_layer:
                findings.setdefault(entry.path, []).append(
                    Finding(
                        line,
                        0,
                        "RPR008",
                        f"{entry.module} (layer {importer_layer}: "
                        f"{importer_pkg!r}) imports {target} (layer "
                        f"{target_layer}: {target_pkg!r}); declared order "
                        f"is {config.layer_order_text()}",
                    )
                )

    graph: Dict[str, Set[str]] = {
        entry.module: {
            target for target in entry.edges if target in by_name
        }
        for entry in modules
    }
    for component in _strongly_connected(graph):
        cycle_text = " -> ".join(component + [component[0]])
        for member in component:
            entry = by_name[member]
            lines = [
                entry.edges[target]
                for target in graph[member]
                if target in component and target in entry.edges
            ]
            findings.setdefault(entry.path, []).append(
                Finding(
                    min(lines) if lines else 1,
                    0,
                    "RPR009",
                    f"import cycle: {cycle_text}",
                )
            )
    return findings
