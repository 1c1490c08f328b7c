"""The invariant linter (`repro lint`, REP001–REP005) tested on itself.

Three layers:

- fixture tests: each rule fires on its planted violation under
  ``tests/lint_fixtures/`` and stays quiet on the clean counterparts
  (the `exact`-guard idiom, the executor escape hatch, a complete key);
- framework tests: suppressions, baseline round-trip, parse errors,
  reporters, CLI exit codes;
- mutation tests (the acceptance criteria): dropping a model's
  ``__init__`` parameter from its cache key, or adding ``time.sleep`` to
  a coroutine in ``service/``, turns the *real* tree's files red.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    Project,
    available_rules,
    get_rules,
    render_text,
    run_rules,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def lint(*argv: str) -> tuple[int, str]:
    """Run `repro lint` in-process, returning (exit code, stdout)."""
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["lint", *argv])
    return code, buffer.getvalue()


def lint_json(*argv: str) -> tuple[int, dict]:
    code, out = lint(*argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------- fixtures

EXPECTED_FIXTURE_HITS = {
    "REP001": [
        ("src/repro/core/taint.py", "float literal 0.5"),
        ("src/repro/core/taint.py", "float() conversion"),
        ("src/repro/core/taint.py", "use of math.sqrt"),
        ("src/repro/core/taint.py", "call to math.sqrt"),
    ],
    "REP002": [
        ("src/repro/service/blocking.py", "time.sleep()"),
        ("src/repro/service/blocking.py", "builtin open()"),
        ("src/repro/service/blocking.py", "socket.create_connection"),
        ("src/repro/service/blocking.py", "subprocess.run"),
        ("src/repro/service/blocking.py", "http.client.HTTPConnection"),
    ],
    "REP003": [
        ("src/repro/engine/models_fixture.py", "`tilt` of model `LeakyAdversary`"),
    ],
    "REP004": [
        ("src/repro/engine/stats_fixture.py", "counter `dropped` of `LeakyStats`"),
        ("src/repro/engine/stats_fixture.py", "no *Stats class declares `ghost`"),
    ],
    "REP005": [
        ("src/repro/engine/nondet_fixture.py", "random.choice()"),
        ("src/repro/engine/nondet_fixture.py", "random.random()"),
        # both the `for ... in set(...)` loop and the set comprehension
        ("src/repro/engine/nondet_fixture.py", "iteration directly over a set"),
        ("src/repro/engine/nondet_fixture.py", "iteration directly over a set"),
        ("src/repro/engine/nondet_fixture.py", "json.dumps without sort_keys"),
    ],
}


@pytest.mark.parametrize("rule", sorted(EXPECTED_FIXTURE_HITS))
def test_rule_fires_on_planted_fixture(rule):
    code, report = lint_json(
        "--root", str(FIXTURES), "--no-baseline", "--rules", rule
    )
    assert code == 1
    findings = report["findings"]
    assert findings and all(f["rule"] == rule for f in findings)
    for path, fragment in EXPECTED_FIXTURE_HITS[rule]:
        assert any(
            f["path"] == path and fragment in f["message"] for f in findings
        ), f"expected {rule} hit {fragment!r} in {path}"


def test_clean_patterns_stay_clean():
    code, report = lint_json("--root", str(FIXTURES), "--no-baseline")
    assert code == 1  # the planted violations
    messages = [
        (f["path"], f["message"], f["rule"]) for f in report["findings"]
    ]
    # The guard idiom, the exempt kernel, executor/async escapes, the
    # complete and inherited keys, the non-counter attr, the justified
    # suppressions: none may appear.
    for path, message, rule in messages:
        assert "guarded_" not in message
        assert "exact_combinatorics" not in message
        assert "unreachable_float_helper" not in message
        assert "suppressed" not in message
        assert path != "src/repro/core/kernel.py"
        assert "good_async" not in message
        assert "good_executor" not in message
        assert "_blocking_helper" not in message
        assert "KeyedAdversary" not in message
        assert "InheritedKeyAdversary" not in message
        assert "CleanStats" not in message
        assert "good_determinism" not in message
        assert rule not in ("REP000", "REP999")
    # And the totals are exactly the planted set: any extra finding is a
    # false positive the fixtures are designed to catch.
    assert len(messages) == sum(
        len(v) for v in EXPECTED_FIXTURE_HITS.values()
    )


def test_real_tree_is_clean_modulo_baseline():
    code, out = lint("--root", str(REPO_ROOT))
    assert code == 0, f"repro lint flagged the real tree:\n{out}"


def test_committed_baseline_is_loadable():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert isinstance(baseline.entries, set)


# ------------------------------------------------- suppressions & baseline


def _mini_tree(tmp_path: Path, rel: str, source: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return tmp_path


def test_justified_line_suppression_silences(tmp_path):
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "import random\n"
        "def f():\n"
        "    return random.random()"
        "  # repro: noqa[REP005] fixture generator, never on result path\n",
    )
    code, _ = lint("--root", str(tmp_path), "--no-baseline")
    assert code == 0


def test_bare_suppression_is_its_own_finding(tmp_path):
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "import random\n"
        "def f():\n"
        "    return random.random()  # repro: noqa[REP005]\n",
    )
    code, report = lint_json("--root", str(tmp_path), "--no-baseline")
    assert code == 1
    assert [f["rule"] for f in report["findings"]] == ["REP000"]


def test_file_scope_suppression(tmp_path):
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "# repro: noqa-file[REP005] deliberately-chaotic demo module\n"
        "import random\n"
        "def f():\n"
        "    return random.random() + random.random()\n",
    )
    code, _ = lint("--root", str(tmp_path), "--no-baseline")
    assert code == 0


def test_parse_error_is_rep999(tmp_path):
    _mini_tree(tmp_path, "src/repro/engine/x.py", "def broken(:\n")
    code, report = lint_json("--root", str(tmp_path), "--no-baseline")
    assert code == 1
    assert [f["rule"] for f in report["findings"]] == ["REP999"]


def test_baseline_roundtrip(tmp_path):
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "import random\ndef f():\n    return random.random()\n",
    )
    code, _ = lint("--root", str(tmp_path))
    assert code == 1
    code, out = lint("--root", str(tmp_path), "--write-baseline")
    assert code == 0 and "1 grandfathered" in out
    # Grandfathered: reported as baselined, not a failure.
    code, report = lint_json("--root", str(tmp_path))
    assert code == 0
    assert len(report["baselined"]) == 1 and report["clean"]
    # A *new* violation still fails, and only the new one is active.
    _mini_tree(
        tmp_path,
        "src/repro/engine/y.py",
        "import random\ndef g():\n    return random.choice([1])\n",
    )
    code, report = lint_json("--root", str(tmp_path))
    assert code == 1
    assert [f["path"] for f in report["findings"]] == ["src/repro/engine/y.py"]
    assert len(report["baselined"]) == 1


def test_baseline_fingerprint_survives_line_drift(tmp_path):
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "import random\ndef f():\n    return random.random()\n",
    )
    lint("--root", str(tmp_path), "--write-baseline")
    # Shift the violation down three lines: same fingerprint, still covered.
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "import random\n# pad\n# pad\n# pad\n"
        "def f():\n    return random.random()\n",
    )
    code, _ = lint("--root", str(tmp_path))
    assert code == 0


# ------------------------------------------------------ framework plumbing


def test_unknown_rule_id_is_a_clean_cli_error(tmp_path, capsys):
    code = main(["lint", "--root", str(tmp_path), "--rules", "REP042"])
    assert code == 1
    assert "unknown lint rule" in capsys.readouterr().err


def test_all_five_rules_registered():
    assert set(available_rules()) >= {
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
    }
    assert len(get_rules()) == len(available_rules())


def test_text_reporter_shows_rule_file_line_and_contract():
    finding = Finding(
        rule="REP001",
        path="src/repro/core/x.py",
        line=7,
        message="float literal 0.5",
        contract="exact mode returns true Fractions",
    )
    text = render_text([finding], [])
    assert "src/repro/core/x.py:7: REP001 float literal 0.5" in text
    assert "contract: exact mode returns true Fractions" in text


def test_project_skips_pycache_and_relativizes(tmp_path):
    _mini_tree(tmp_path, "src/repro/core/a.py", "x = 1\n")
    _mini_tree(tmp_path, "src/repro/__pycache__/junk.py", "x = 2\n")
    project = Project(tmp_path)
    assert [f.rel for f in project.files] == ["src/repro/core/a.py"]


# ------------------------------------- acceptance-criteria mutation tests


def test_dropping_model_param_from_key_fails_lint(tmp_path):
    """Remove DistributionAdversary.params_key from the *real* source:
    REP003 must flag `tilt` — the ROADMAP stale-cache bug, pre-empted."""
    source = (REPO_ROOT / "src/repro/engine/models_distribution.py").read_text()
    assert "def params_key" in source
    mutated = source.replace("def params_key", "def _detached_params_key")
    _mini_tree(tmp_path, "src/repro/engine/models_distribution.py", mutated)
    code, report = lint_json(
        "--root", str(tmp_path), "--no-baseline", "--rules", "REP003"
    )
    assert code == 1
    assert any(
        "`tilt` of model `DistributionAdversary`" in f["message"]
        for f in report["findings"]
    )
    # And unmutated, the same file passes.
    _mini_tree(tmp_path, "src/repro/engine/models_distribution.py", source)
    code, _ = lint(
        "--root", str(tmp_path), "--no-baseline", "--rules", "REP003"
    )
    assert code == 0


def test_adding_sleep_to_service_coroutine_fails_lint(tmp_path):
    """Plant time.sleep inside an `async def` of the *real* server.py:
    REP002 must flag it."""
    source = (REPO_ROOT / "src/repro/service/server.py").read_text()
    match = re.search(r"(    async def \w+\(self[^)]*\).*:\n)", source)
    assert match is not None
    mutated = source.replace(
        match.group(1), match.group(1) + "        time.sleep(0.01)\n", 1
    )
    _mini_tree(tmp_path, "src/repro/service/server.py", mutated)
    code, report = lint_json(
        "--root", str(tmp_path), "--no-baseline", "--rules", "REP002"
    )
    assert code == 1
    assert any(
        "time.sleep() blocks the event loop" in f["message"]
        for f in report["findings"]
    )
    # And unmutated, the same file passes.
    _mini_tree(tmp_path, "src/repro/service/server.py", source)
    code, _ = lint(
        "--root", str(tmp_path), "--no-baseline", "--rules", "REP002"
    )
    assert code == 0


def test_run_rules_api_matches_cli(tmp_path):
    _mini_tree(
        tmp_path,
        "src/repro/engine/x.py",
        "import random\ndef f():\n    return random.random()\n",
    )
    project = Project(tmp_path)
    active, baselined = run_rules(project, get_rules(["REP005"]))
    assert [f.rule for f in active] == ["REP005"]
    assert baselined == []
