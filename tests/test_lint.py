"""Tests for the ``repro.devtools.lint`` static analyzer.

Three layers of coverage:

* per-rule fixture snippets under ``tests/lint_fixtures/`` — every rule
  fires on its bad fixture, stays silent on its good one, and can be
  silenced by a well-formed suppression;
* the import-layering contract (RPR008/RPR009) on a synthetic package
  tree with a deliberate upward import and a deliberate cycle;
* the self-check: the real repo tree is clean, which is the acceptance
  gate CI enforces with ``python -m repro lint src/repro tests``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.devtools.lint import Diagnostic, LintReport, lint_paths
from repro.devtools.lint import cli as lint_cli
from repro.devtools.lint.config import (
    DEFAULT_CONFIG,
    LintConfig,
    _parse_toml_subset,
    discover_config,
    load_config,
)
from repro.devtools.lint.diagnostics import REPORT_SCHEMA_VERSION
from repro.devtools.lint.registry import RETIRED_CODES, RULES, get_rule
from repro.devtools.lint.runner import gather_files
from repro.devtools.lint.suppressions import scan_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: Contract used for fixture snippets: self-contained, independent of the
#: repo's own pyproject so fixture expectations never drift with it.
FIXTURE_CONFIG = LintConfig(package="repro", fingerprint_roots=("FixtureSpec",))

#: (fixture stem, rule code, findings expected on the bad fixture).
RULE_CASES = (
    ("rpr001", "RPR001", 5),
    ("rpr002", "RPR002", 5),
    ("rpr003", "RPR003", 3),
    ("rpr004", "RPR004", 3),
    ("rpr005", "RPR005", 3),
)


def lint_fixture(name: str) -> LintReport:
    return lint_paths(
        [FIXTURES / name],
        config=FIXTURE_CONFIG,
        scope="library",
        relative_to=FIXTURES,
    )


# -- per-rule fixtures ------------------------------------------------------------------


@pytest.mark.parametrize("stem,code,count", RULE_CASES)
def test_rule_fires_on_bad_fixture(stem, code, count):
    report = lint_fixture(f"{stem}_bad.py")
    assert [d.code for d in report.diagnostics] == [code] * count
    assert all(d.line > 0 for d in report.diagnostics)


@pytest.mark.parametrize("stem,code,count", RULE_CASES)
def test_rule_silent_on_good_fixture(stem, code, count):
    report = lint_fixture(f"{stem}_good.py")
    assert report.clean, report.format_text()


@pytest.mark.parametrize("stem,code,count", RULE_CASES)
def test_rule_suppression_silences_bad_fixture(stem, code, count, tmp_path):
    """Appending a suppression to every flagged line yields a clean run."""
    report = lint_fixture(f"{stem}_bad.py")
    lines = (FIXTURES / f"{stem}_bad.py").read_text().splitlines()
    for diagnostic in report.diagnostics:
        suffix = f"  # repro-lint: disable={code} -- fixture suppression test"
        if "repro-lint" not in lines[diagnostic.line - 1]:
            lines[diagnostic.line - 1] += suffix
    target = tmp_path / f"{stem}_suppressed.py"
    target.write_text("\n".join(lines) + "\n")
    suppressed = lint_paths([target], config=FIXTURE_CONFIG, scope="library")
    assert suppressed.clean, suppressed.format_text()


# -- suppression hygiene ----------------------------------------------------------------


def test_consumed_suppression_is_silent():
    assert lint_fixture("suppressed_ok.py").clean


def test_suppression_hygiene_findings():
    report = lint_fixture("suppressed_bad.py")
    assert [d.code for d in report.diagnostics] == ["RPR000"] * 3
    messages = "\n".join(d.message for d in report.diagnostics)
    assert "missing its rationale" in messages
    assert "unknown rule code 'RPR999'" in messages
    assert "unused suppression" in messages


def test_rpr000_is_never_suppressible(tmp_path):
    source = tmp_path / "snippet.py"
    source.write_text(
        "x = 1  # repro-lint: disable=RPR000 -- trying to silence the police\n"
    )
    report = lint_paths([source], config=FIXTURE_CONFIG, scope="library")
    assert [d.code for d in report.diagnostics] == ["RPR000"]
    assert "cannot be suppressed" in report.diagnostics[0].message


def test_marker_inside_string_literal_is_not_a_directive():
    source = 's = "# repro-lint: disable=RPR005 -- not a comment"\n'
    suppressions = scan_suppressions(source)
    assert not suppressions.active
    assert not suppressions.problems


def test_unparsable_file_reports_rpr000(tmp_path):
    source = tmp_path / "broken.py"
    source.write_text("def broken(:\n")
    report = lint_paths([source], config=FIXTURE_CONFIG, scope="library")
    assert [d.code for d in report.diagnostics] == ["RPR000"]
    assert "cannot parse file" in report.diagnostics[0].message


# -- layering contract ------------------------------------------------------------------


LAYERED_PYPROJECT = """\
[tool.repro-lint]
package = "fake"
layers = [
    ["base"],
    ["mid"],
    ["top"],
]
"""


@pytest.fixture()
def layered_tree(tmp_path):
    """A synthetic package with one upward import, one cycle, one stray
    package, one bare-root import, and exempt TYPE_CHECKING/deferred
    imports."""
    (tmp_path / "pyproject.toml").write_text(LAYERED_PYPROJECT)
    package = tmp_path / "src" / "fake"
    files = {
        "__init__.py": "from fake.base.util import helper\n",
        "base/__init__.py": "",
        "base/util.py": (
            "from fake.top.widget import Widget\n"
            "def helper():\n"
            "    return Widget\n"
        ),
        "base/typed.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from fake.top.widget import Widget\n"
        ),
        "base/deferred.py": (
            "def lazily():\n"
            "    from fake.top.widget import Widget\n"
            "    return Widget\n"
        ),
        "mid/__init__.py": "",
        "mid/a.py": (
            "import fake\n"
            "from .b import helper_b\n"
            "def helper_a():\n"
            "    return helper_b\n"
        ),
        "mid/b.py": (
            "from fake.mid.a import helper_a\n"
            "def helper_b():\n"
            "    return helper_a\n"
        ),
        "top/__init__.py": "",
        "top/widget.py": "class Widget:\n    pass\n",
        "stray/__init__.py": "",
    }
    for relative, text in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_layering_contract_findings(layered_tree):
    report = lint_paths(
        [layered_tree / "src" / "fake"], relative_to=layered_tree
    )
    by_code = {}
    for diagnostic in report.diagnostics:
        by_code.setdefault(diagnostic.code, []).append(diagnostic)
    # One upward import, one bare-root import, one unassigned package.
    assert len(by_code["RPR008"]) == 3
    messages = "\n".join(d.message for d in by_code["RPR008"])
    assert "declared order is base -> mid -> top" in messages
    assert "imports the package root 'fake'" in messages
    assert "package 'stray' is not assigned a layer" in messages
    # The a <-> b cycle is reported on both members.
    assert len(by_code["RPR009"]) == 2
    assert all(
        "fake.mid.a -> fake.mid.b -> fake.mid.a" in d.message
        for d in by_code["RPR009"]
    )
    # TYPE_CHECKING-gated and function-deferred imports are exempt.
    flagged = {d.path for d in report.diagnostics}
    assert not any("typed.py" in path for path in flagged)
    assert not any("deferred.py" in path for path in flagged)
    # The package-root facade may re-export across layers.
    assert not any(path.endswith("fake/__init__.py") for path in flagged)


def test_layering_clean_when_order_respected(layered_tree):
    package = layered_tree / "src" / "fake"
    (package / "base" / "util.py").write_text("def helper():\n    return 1\n")
    (package / "mid" / "a.py").write_text(
        "from .b import helper_b\ndef helper_a():\n    return helper_b\n"
    )
    (package / "mid" / "b.py").write_text("def helper_b():\n    return 2\n")
    (package / "top" / "widget.py").write_text(
        "from fake.base.util import helper\nclass Widget:\n    pass\n"
    )
    import shutil

    shutil.rmtree(package / "stray")
    report = lint_paths([package])
    assert report.clean, report.format_text()


# -- configuration ----------------------------------------------------------------------


def test_toml_fallback_matches_tomllib_on_repo_contract():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    table = _parse_toml_subset(text)
    assert table["package"] == "repro"
    assert table["layers"][0] == ["common"]
    tomllib = pytest.importorskip("tomllib")
    assert table == tomllib.loads(text)["tool"]["repro-lint"]


def test_repo_contract_loads(tmp_path):
    config = load_config(REPO_ROOT / "pyproject.toml")
    assert config.package == "repro"
    assert config.layers[0] == ("common",)
    assert config.layer_of("common") == 0
    assert config.layer_of("store") == len(config.layers) - 1
    assert config.layer_of("unheard-of") is None
    assert "lint_fixtures" in config.exclude
    assert "common" in config.layer_order_text()


def test_config_rejects_duplicate_layer_assignment(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[tool.repro-lint]\npackage = "p"\nlayers = [["a"], ["a"]]\n'
    )
    with pytest.raises(ConfigurationError, match="appears in both"):
        load_config(pyproject)


def test_config_rejects_non_string_arrays(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.repro-lint]\nlayers = [[1]]\n")
    with pytest.raises(ConfigurationError, match="array of strings"):
        load_config(pyproject)


def test_missing_pyproject_raises():
    with pytest.raises(ConfigurationError, match="no pyproject.toml"):
        load_config(REPO_ROOT / "nope" / "pyproject.toml")


def test_discover_config_falls_back_to_default(tmp_path):
    assert discover_config(tmp_path) == DEFAULT_CONFIG


# -- registry ---------------------------------------------------------------------------


def test_registry_codes_are_stable():
    assert not set(RULES) & set(RETIRED_CODES)
    assert sorted((*RULES, *RETIRED_CODES)) == [f"RPR{i:03d}" for i in range(10)]
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.summary
        assert rule.explanation
        assert rule.scopes <= {"library", "tests"}


def test_get_rule_normalizes_and_rejects():
    assert get_rule(" rpr001 ").code == "RPR001"
    with pytest.raises(ConfigurationError, match="unknown rule code"):
        get_rule("RPR999")


def test_tests_scope_keeps_seed_rules_only():
    report = lint_paths(
        [FIXTURES / "rpr001_bad.py"], config=FIXTURE_CONFIG, scope="tests"
    )
    assert [d.code for d in report.diagnostics] == ["RPR001"] * 5
    # Library-only rules stay quiet on test files.
    assert lint_paths(
        [FIXTURES / "rpr005_bad.py"], config=FIXTURE_CONFIG, scope="tests"
    ).clean


# -- CLI --------------------------------------------------------------------------------


def test_cli_explain_and_list_rules(capsys):
    assert lint_cli.main(["--explain", "RPR003"]) == 0
    out = capsys.readouterr().out
    assert "RPR003" in out
    assert "sort_keys=True" in out
    assert lint_cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_cli_explain_unknown_code_exits_2(capsys):
    assert lint_cli.main(["--explain", "RPR999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_cli_missing_path_exits_2(capsys):
    assert lint_cli.main([str(FIXTURES / "no_such_file.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_findings_exit_1_with_json_report(tmp_path, capsys):
    report_path = tmp_path / "artifacts" / "lint-report.json"
    code = lint_cli.main(
        [
            str(FIXTURES / "rpr005_bad.py"),
            "--scope",
            "library",
            "--format",
            "json",
            "--json-report",
            str(report_path),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["finding_count"] == 3
    assert {d["code"] for d in payload["diagnostics"]} == {"RPR005"}
    assert json.loads(report_path.read_text()) == payload


def test_cli_clean_run_exits_0(capsys):
    code = lint_cli.main([str(FIXTURES / "rpr005_good.py"), "--scope", "library"])
    assert code == 0
    assert "clean: 1 file, 0 findings" in capsys.readouterr().out


def test_cli_via_repro_entry_point(capsys):
    from repro.store.cli import main as repro_main

    code = repro_main(
        ["lint", str(FIXTURES / "rpr003_bad.py"), "--scope", "library"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "RPR003" in out


# -- diagnostics ------------------------------------------------------------------------


def test_diagnostic_format_and_ordering():
    first = Diagnostic("a.py", 3, 0, "RPR001", "m")
    second = Diagnostic("a.py", 10, 2, "RPR005", "n")
    assert first.format() == "a.py:3:0: RPR001 m"
    assert sorted([second, first]) == [first, second]
    report = LintReport(diagnostics=(first, second), files_scanned=1)
    assert not report.clean
    assert report.format_text().endswith("2 finding(s) in 1 file")


# -- the repo's own tree ----------------------------------------------------------------


def test_repo_tree_is_clean():
    """Acceptance gate: the shipped tree and test suite lint clean."""
    report = lint_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"],
        relative_to=REPO_ROOT,
    )
    assert report.clean, report.format_text()
    assert report.files_scanned > 100


def test_fixture_corpus_is_excluded_from_tree_scans():
    config = load_config(REPO_ROOT / "pyproject.toml")
    files = gather_files([REPO_ROOT / "tests"], exclude=config.exclude)
    assert files, "tests directory should contain Python files"
    assert not any("lint_fixtures" in file.parts for file in files)
    # Direct file arguments bypass the exclusion.
    direct = gather_files([FIXTURES / "rpr001_bad.py"], exclude=config.exclude)
    assert len(direct) == 1
