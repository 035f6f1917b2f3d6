"""The AST rule implementations (RPR001-RPR005).

Per-file rules run in a single :class:`ast.NodeVisitor` pass over each
source file; :func:`check_canonical_fields` (RPR004) is a project-level
pass because fingerprint reachability spans files.  All checks are
name-based — the analyzer resolves dotted attribute chains textually
(``np.random.seed``), not through imports, which keeps it fast and
dependency-free; the rule explanations document that aliasing a module
(``import numpy.random as nr``) is out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.registry import RULES

#: numpy global-RNG entry points (module-level state shared by all callers).
NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "normal",
        "uniform",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "get_state",
        "set_state",
    }
)

#: Dotted calls that read wall-clock time or harvest OS entropy.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: Builtin exceptions that must not be raised directly by library code.
FORBIDDEN_RAISES = frozenset(
    {
        "ArithmeticError",
        "AttributeError",
        "BaseException",
        "Exception",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "OSError",
        "OverflowError",
        "RuntimeError",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)

#: Annotation names that canonical hashing rejects outright.
UNCANONICAL_ANNOTATIONS = frozenset(
    {"set", "Set", "MutableSet", "AbstractSet", "frozenset", "FrozenSet"}
)

#: Mapping-like annotation heads whose key type must be ``str``.
MAPPING_ANNOTATIONS = frozenset({"dict", "Dict", "Mapping", "MutableMapping"})

#: ``default_factory`` callables that produce mutable values.
MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render an ``a.b.c`` attribute chain as a string (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class Finding:
    """One pre-suppression finding inside a single file."""

    line: int
    column: int
    code: str
    message: str


class FileChecker(ast.NodeVisitor):
    """Runs every per-file rule whose scope matches the file."""

    def __init__(self, module: Optional[str], scope: str, config: LintConfig) -> None:
        self.module = module
        self.scope = scope
        self.config = config
        self.findings: List[Finding] = []

    # -- plumbing ----------------------------------------------------------------------

    def _enabled(self, code: str) -> bool:
        return self.scope in RULES[code].scopes

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if self._enabled(code):
            self.findings.append(
                Finding(node.lineno, node.col_offset, code, message)
            )

    # -- RPR001: imports ----------------------------------------------------------------

    def _check_import_name(self, node: ast.AST, name: str) -> None:
        if name == "random" or name.startswith("random."):
            self._report(
                node,
                "RPR001",
                "stdlib 'random' draws from hidden global state; use "
                "numpy.random.default_rng(seed) with a recorded seed",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import_name(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._check_import_name(node, node.module)
        self.generic_visit(node)

    # -- RPR001 / RPR002 / RPR003: calls -----------------------------------------------

    def _check_rng_call(self, node: ast.Call, dotted: Optional[str]) -> None:
        tail = dotted.rsplit(".", 2) if dotted else []
        if len(tail) == 3 and tail[1] == "random" and tail[2] in NUMPY_GLOBAL_RNG:
            self._report(
                node,
                "RPR001",
                f"call to numpy global RNG '{dotted}'; draw from an "
                "explicitly seeded numpy.random.default_rng(seed) instead",
            )
            return
        callee = dotted.rsplit(".", 1)[-1] if dotted else None
        if callee == "default_rng":
            seeded = bool(node.args) and not (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            seeded = seeded or any(
                keyword.arg == "seed" for keyword in node.keywords
            )
            if not seeded:
                self._report(
                    node,
                    "RPR001",
                    "default_rng() without an explicit seed harvests OS "
                    "entropy; pass a seed that is recorded in the result",
                )
        elif callee == "SeedSequence":
            if not node.args and not any(
                keyword.arg == "entropy" for keyword in node.keywords
            ):
                self._report(
                    node,
                    "RPR001",
                    "SeedSequence() without entropy harvests OS entropy; "
                    "pass the recorded seed explicitly",
                )

    def _check_wall_clock(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted in WALL_CLOCK_CALLS:
            self._report(
                node,
                "RPR002",
                f"nondeterministic call '{dotted}()'; results and "
                "fingerprints must not depend on wall clock or OS entropy",
            )

    def _check_id_feeds_hash(self, node: ast.Call, dotted: Optional[str]) -> None:
        is_hash = dotted == "hash" or (
            dotted is not None and dotted.startswith("hashlib.")
        )
        if not is_hash:
            return
        for argument in (*node.args, *(kw.value for kw in node.keywords)):
            for inner in ast.walk(argument):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "id"
                ):
                    self._report(
                        inner,
                        "RPR002",
                        "id() feeding a hash; CPython ids are "
                        "address-derived and differ across processes",
                    )

    def _check_json_dumps(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted not in ("json.dumps", "json.dump"):
            return
        if any(keyword.arg is None for keyword in node.keywords):
            return  # **kwargs — cannot see the values statically
        keywords = {
            keyword.arg: keyword.value
            for keyword in node.keywords
            if keyword.arg is not None
        }
        missing: List[str] = []
        sort_keys = keywords.get("sort_keys")
        if not (isinstance(sort_keys, ast.Constant) and sort_keys.value is True):
            missing.append("sort_keys=True")
        allow_nan = keywords.get("allow_nan")
        if not (isinstance(allow_nan, ast.Constant) and allow_nan.value is False):
            missing.append("allow_nan=False")
        if missing:
            self._report(
                node,
                "RPR003",
                f"{dotted}() without {' and '.join(missing)}; persisted or "
                "hashed JSON must serialize canonically",
            )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        self._check_rng_call(node, dotted)
        self._check_wall_clock(node, dotted)
        self._check_id_feeds_hash(node, dotted)
        self._check_json_dumps(node, dotted)
        self.generic_visit(node)

    # -- RPR005: raises ----------------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in FORBIDDEN_RAISES:
            self._report(
                node,
                "RPR005",
                f"raise of builtin {exc.id}; library errors must derive "
                "from repro.common.errors.ReproError",
            )
        self.generic_visit(node)


def check_file(
    tree: ast.Module, module: Optional[str], scope: str, config: LintConfig
) -> List[Finding]:
    """Run every per-file rule over one parsed source file."""
    checker = FileChecker(module, scope, config)
    checker.visit(tree)
    return checker.findings


# -- RPR004: canonical fields of fingerprint-reachable frozen dataclasses --------------


@dataclass
class DataclassInfo:
    """One dataclass definition found anywhere in the linted tree."""

    name: str
    path: str
    frozen: bool
    node: ast.ClassDef
    fields: List[ast.AnnAssign]
    referenced: Set[str]


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target) in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    return any(
        keyword.arg == "frozen"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in decorator.keywords
    )


def collect_dataclasses(
    parsed: Sequence[Tuple[str, ast.Module]]
) -> Dict[str, DataclassInfo]:
    """Index every dataclass definition across *parsed* (path, tree) pairs."""
    table: Dict[str, DataclassInfo] = {}
    for path, tree in parsed:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            annotated = [
                statement
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
            referenced: Set[str] = set()
            for statement in annotated:
                for inner in ast.walk(statement.annotation):
                    if isinstance(inner, ast.Name):
                        referenced.add(inner.id)
                    elif isinstance(inner, ast.Constant) and isinstance(
                        inner.value, str
                    ):
                        # Forward references: 'SystemSpec' in quotes.
                        referenced.update(
                            part
                            for part in inner.value.replace("[", " ")
                            .replace("]", " ")
                            .replace(",", " ")
                            .split()
                        )
            # First definition wins; duplicated names across fixture trees
            # are out of scope for reachability.
            table.setdefault(
                node.name,
                DataclassInfo(
                    name=node.name,
                    path=path,
                    frozen=_is_frozen(decorator),
                    node=node,
                    fields=annotated,
                    referenced=referenced,
                ),
            )
    return table


def _reachable(
    table: Dict[str, DataclassInfo], roots: Iterable[str]
) -> Set[str]:
    frontier = [name for name in roots if name in table]
    reached: Set[str] = set(frontier)
    while frontier:
        info = table[frontier.pop()]
        for name in info.referenced:
            if name in table and name not in reached:
                reached.add(name)
                frontier.append(name)
    return reached


def _annotation_problems(annotation: ast.expr) -> List[Tuple[ast.AST, str]]:
    problems: List[Tuple[ast.AST, str]] = []
    for inner in ast.walk(annotation):
        if isinstance(inner, ast.Name) and inner.id in UNCANONICAL_ANNOTATIONS:
            problems.append(
                (
                    inner,
                    f"annotation uses {inner.id!r}: sets are unordered and "
                    "cannot be rendered canonically; use a sorted tuple",
                )
            )
        if isinstance(inner, ast.Subscript):
            head = dotted_name(inner.value)
            head_tail = head.rsplit(".", 1)[-1] if head else None
            if head_tail in MAPPING_ANNOTATIONS:
                key = inner.slice
                if isinstance(key, ast.Tuple) and key.elts:
                    key = key.elts[0]
                key_name = dotted_name(key)
                if key_name is not None and key_name.rsplit(".", 1)[-1] != "str":
                    problems.append(
                        (
                            inner,
                            f"mapping key type {key_name!r} is not 'str': "
                            "canonical JSON objects only have string keys",
                        )
                    )
    return problems


def _default_problems(value: Optional[ast.expr]) -> List[Tuple[ast.AST, str]]:
    if value is None:
        return []
    problems: List[Tuple[ast.AST, str]] = []
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        problems.append(
            (value, "mutable default value; frozen hashed specs must not alias")
        )
    if isinstance(value, ast.Call) and dotted_name(value.func) in (
        "field",
        "dataclasses.field",
    ):
        for keyword in value.keywords:
            if keyword.arg != "default_factory":
                continue
            factory = dotted_name(keyword.value)
            if factory in MUTABLE_FACTORIES:
                problems.append(
                    (
                        keyword.value,
                        f"default_factory={factory} builds a mutable "
                        "default; use an immutable default (e.g. a tuple)",
                    )
                )
    return problems


def check_canonical_fields(
    parsed: Sequence[Tuple[str, ast.Module]], config: LintConfig
) -> Dict[str, List[Finding]]:
    """RPR004 over the whole tree: path -> findings.

    Walks the dataclass-reference graph from ``fingerprint-roots`` and
    checks the canonicality of every reachable *frozen* dataclass.
    """
    if not config.fingerprint_roots:
        return {}
    table = collect_dataclasses(parsed)
    findings: Dict[str, List[Finding]] = {}
    for name in sorted(_reachable(table, config.fingerprint_roots)):
        info = table[name]
        if not info.frozen:
            continue
        for statement in info.fields:
            assert isinstance(statement.target, ast.Name)
            problems = _annotation_problems(statement.annotation)
            problems.extend(_default_problems(statement.value))
            for node, detail in problems:
                findings.setdefault(info.path, []).append(
                    Finding(
                        getattr(node, "lineno", statement.lineno),
                        getattr(node, "col_offset", statement.col_offset),
                        "RPR004",
                        f"field {statement.target.id!r} of fingerprinted "
                        f"frozen dataclass {name!r}: {detail}",
                    )
                )
    return findings
