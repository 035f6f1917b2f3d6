"""The rule catalog: stable codes, one-line summaries, ``--explain`` texts.

Every code is permanent once shipped — retired rules keep their number and
are never reused, so a suppression comment or a CI annotation written today
still means the same thing in two years.

Rules carry a *scope* set deciding where they apply:

* ``"library"`` — files that resolve to a module under the ``repro``
  package (i.e. the shipped source tree).
* ``"tests"`` — everything else handed to the analyzer (the test suite,
  fixture snippets).  Only replay-critical rules apply there: a test that
  draws from global RNG state is as unreproducible as library code that
  does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.common.errors import ConfigurationError

LIBRARY = frozenset({"library"})
EVERYWHERE = frozenset({"library", "tests"})

#: Codes of retired rules, reserved so they never mean anything else:
#: RPR006 policed the deprecated factory shims and RPR007 hand-written
#: ``to_dict`` methods; the shims are gone and the shared codec stamps
#: ``schema_version`` on every payload.
RETIRED_CODES = ("RPR006", "RPR007")


@dataclass(frozen=True)
class Rule:
    """Metadata of one analyzer rule."""

    code: str
    name: str
    summary: str
    explanation: str
    scopes: FrozenSet[str]


def _rule(code: str, name: str, summary: str, explanation: str, scopes=LIBRARY) -> Rule:
    return Rule(
        code=code,
        name=name,
        summary=summary,
        explanation=explanation.strip(),
        scopes=scopes,
    )


RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        _rule(
            "RPR000",
            "suppression-hygiene",
            "suppression comments must parse, carry a rationale, and be used",
            """
Suppressions are part of the audit trail: `# repro-lint: disable=RPRnnn --
<why>` records *who decided this finding is acceptable and why*.  RPR000
fires when a suppression comment is malformed, names an unknown rule code,
omits the `-- rationale` tail, or suppresses a code that does not actually
fire on its line (a stale suppression hides future regressions).  It also
reports files the analyzer cannot parse.  RPR000 itself cannot be
suppressed.
""",
            EVERYWHERE,
        ),
        _rule(
            "RPR001",
            "seed-discipline",
            "no stdlib random, no numpy global RNG, no entropy-seeded generators",
            """
Every stochastic draw in this codebase must flow from an explicit,
recorded seed — that is what makes seeded sweeps bit-identical on replay
and keeps content-addressed run IDs meaningful.  RPR001 flags: importing
the stdlib `random` module; calls through numpy's *global* RNG state
(`np.random.seed`, `np.random.normal`, `np.random.rand`, ...), which any
other caller can silently reseed; `np.random.default_rng()` called without
an explicit seed argument; and `np.random.SeedSequence()` called without
entropy, which harvests OS entropy.  Use `np.random.default_rng(seed)`
with a seed that is recorded in the result payload.  This rule also
applies to tests: a test drawing from global RNG state is order-dependent.
""",
            EVERYWHERE,
        ),
        _rule(
            "RPR002",
            "nondeterminism-hazard",
            "no wall-clock reads, OS entropy, or id()-fed hashes in library code",
            """
Run identity is `sha256(spec x workload x seed x engine version)` — nothing
time- or process-dependent may leak into results or fingerprints.  RPR002
flags wall-clock reads (`time.time`, `time.monotonic`, `time.perf_counter`,
`datetime.now`, `datetime.utcnow`, `date.today`), OS entropy
(`os.urandom`, `uuid.uuid1`, `uuid.uuid4`, `secrets.*`), and `id(...)`
feeding `hash()` or a `hashlib` digest (CPython ids are address-derived
and differ between processes).  Legitimate uses — timestamping a manifest
*as metadata*, naming a temp file — must carry a suppression whose
rationale states why the value can never reach a fingerprint.
""",
        ),
        _rule(
            "RPR003",
            "json-canonicality",
            "json.dumps/json.dump must pass sort_keys=True and allow_nan=False",
            """
Stored artifacts and hashed payloads must serialize canonically: key order
fixed by sorting, and NaN/Infinity rejected (their JSON spelling is not
valid JSON, round-trips asymmetrically, and NaN breaks equality checks on
replay).  RPR003 fires on any `json.dumps`/`json.dump` call in library
code that does not pass both `sort_keys=True` and `allow_nan=False` as
literal keyword arguments.  A dumps whose output is provably never
persisted or hashed may be suppressed with a rationale saying so.
""",
        ),
        _rule(
            "RPR004",
            "canonical-fields",
            "fingerprinted frozen dataclasses must have canonicalizable fields",
            """
The run store renders frozen spec/workload dataclasses to canonical JSON
field-by-field (`repro.store.hashing.canonical_payload`).  That rendering
rejects sets (unordered — iteration order would leak into the hash),
mappings with non-string keys (JSON objects only have string keys), and
cannot protect mutable defaults (`field(default_factory=list)` & friends)
from post-construction aliasing.  RPR004 walks the dataclass-reference
graph from the configured fingerprint roots (`SystemSpec`, the workload
descriptors) and flags any reachable frozen dataclass whose field
annotations mention `set`/`frozenset`, whose `Dict`/`Mapping` keys are not
`str`, or whose defaults are built by a mutable factory.
""",
        ),
        _rule(
            "RPR005",
            "error-discipline",
            "library raises must derive from ReproError",
            """
Callers are promised they can `except ReproError` around any library call
without swallowing unrelated bugs — a bare `ValueError` raised by a model
breaks that contract and escapes study executors' error accounting.
RPR005 flags `raise` statements whose exception is a builtin
(`ValueError`, `TypeError`, `KeyError`, `RuntimeError`, ...).  Use
`ConfigurationError`, `ConstraintViolation`, `SimulationError`,
`StoreError`, or a new `ReproError` subclass.  `NotImplementedError` (an
abstractness marker, not an error signal) is always allowed; protocol
obligations such as `KeyError` from a `MutableMapping.__getitem__` must be
suppressed with a rationale naming the protocol.
""",
        ),
        _rule(
            "RPR008",
            "layering-contract",
            "imports must respect the declared layer order of pyproject.toml",
            """
The package layering (`[tool.repro-lint].layers` in pyproject.toml)
declares the order common -> devtools/power/pdn/soc/reliability/pmu/
workloads -> sim -> fleet -> core/variation/analysis -> store: a module
may import its own layer or lower, never higher.  RPR008 fires on a runtime
import that points up the stack, and on any package the contract does not
assign a layer.  An import deferred into a function body counts too: it
creates the same dependency, it only runs later.  Imports inside
`if TYPE_CHECKING:` blocks are exempt: they never execute.
The package root (`repro/__init__.py`, `repro/__main__.py`) is the public
facade and re-exports every layer.
""",
        ),
        _rule(
            "RPR009",
            "import-cycle",
            "the runtime import graph must be acyclic",
            """
An import cycle makes module initialisation order-dependent: which names
exist when a module body runs depends on who imported whom first, and the
failure mode (`ImportError: partially initialized module`) appears only
under specific entry points.  RPR009 reports every module participating
in a strongly-connected component of the module-level runtime import
graph.  Break cycles by moving shared types down a layer, deferring the
import into the function that needs it, or gating it behind
`if TYPE_CHECKING:`.
""",
        ),
    )
}


def get_rule(code: str) -> Rule:
    """Look a rule up by code (raises :class:`ConfigurationError` if unknown)."""
    normalized = code.strip().upper()
    try:
        return RULES[normalized]
    except KeyError:
        raise ConfigurationError(
            f"unknown rule code {code!r}; known: {', '.join(sorted(RULES))}"
        ) from None
