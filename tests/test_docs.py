"""The doc-drift gate (``scripts/check_docs.py``) and the docs it guards.

The checker is itself code, so its failure paths are tested the way any
linter's are: against deliberately broken copies of the docs tree.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs.py"
DOCS = REPO_ROOT / "docs"


def run_checker(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def copy_docs(tmp_path: Path) -> Path:
    docs_dir = tmp_path / "docs"
    shutil.copytree(DOCS, docs_dir)
    return docs_dir


class TestCheckDocs:
    def test_repo_docs_are_in_sync(self):
        result = run_checker()
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    def test_missing_endpoint_row_fails(self, tmp_path):
        docs_dir = copy_docs(tmp_path)
        wire = docs_dir / "wire-protocol.md"
        text = wire.read_text()
        lines = [
            line
            for line in text.splitlines()
            if not line.startswith("| `/publish`")
        ]
        assert len(lines) < len(text.splitlines())
        wire.write_text("\n".join(lines))
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "POST /publish" in result.stderr

    def test_stale_documented_endpoint_fails(self, tmp_path):
        docs_dir = copy_docs(tmp_path)
        wire = docs_dir / "wire-protocol.md"
        text = wire.read_text()
        wire.write_text(
            text.replace(
                "| `/healthz` | GET |",
                "| `/healthz` | GET |\n| `/gone` | GET | vanished |",
            )
        )
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "GET /gone" in result.stderr

    def test_wrong_verb_fails(self, tmp_path):
        docs_dir = copy_docs(tmp_path)
        wire = docs_dir / "wire-protocol.md"
        wire.write_text(
            wire.read_text().replace(
                "| `/publish` | POST |", "| `/publish` | GET |"
            )
        )
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "/publish" in result.stderr

    def test_undocumented_cli_subcommand_fails(self, tmp_path):
        docs_dir = copy_docs(tmp_path)
        for path in docs_dir.glob("*.md"):
            path.write_text(path.read_text().replace("estimate", "est_imate"))
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "'estimate'" in result.stderr

    def test_unknown_cli_flag_fails(self, tmp_path):
        docs_dir = copy_docs(tmp_path)
        guide = docs_dir / "deployment.md"
        guide.write_text(
            guide.read_text() + "\nTune it with `repro serve --made-up-flag 3`.\n"
        )
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "`--made-up-flag` is not an option" in result.stderr
        assert "deployment.md:" in result.stderr

    def test_flag_of_another_subcommand_fails(self, tmp_path):
        """A span that names a subcommand may use only its options (and
        the top-level ones), even when another subcommand has the flag."""
        docs_dir = copy_docs(tmp_path)
        guide = docs_dir / "architecture.md"
        guide.write_text(
            guide.read_text() + "\nSplit the sweep with `search --shards 2`.\n"
        )
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "`--shards` is not an option of `repro search`" in result.stderr
        assert "architecture.md:" in result.stderr

    def test_missing_wire_doc_fails(self, tmp_path):
        docs_dir = copy_docs(tmp_path)
        (docs_dir / "wire-protocol.md").unlink()
        result = run_checker("--docs-dir", str(docs_dir))
        assert result.returncode == 1
        assert "missing" in result.stderr


class TestDocsContent:
    """Light content pins so the guides stay navigable."""

    @pytest.mark.parametrize(
        "name", ["architecture.md", "deployment.md", "wire-protocol.md"]
    )
    def test_guide_exists(self, name):
        assert (DOCS / name).is_file()

    def test_readme_points_at_all_guides(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in ("architecture.md", "deployment.md", "wire-protocol.md"):
            assert f"docs/{name}" in readme

    def test_readme_is_an_overview_not_a_manual(self):
        # The deployment/service/protocol detail lives in docs/ now; the
        # README must not regrow it (it peaked at ~580 lines).
        lines = (REPO_ROOT / "README.md").read_text().splitlines()
        assert len(lines) < 250

    def test_internal_doc_links_resolve(self):
        link = re.compile(r"\]\(([^)#]+)(?:#[^)]*)?\)")
        for doc in (*DOCS.glob("*.md"), REPO_ROOT / "README.md"):
            for target in link.findall(doc.read_text()):
                if "://" in target:
                    continue
                resolved = (doc.parent / target).resolve()
                assert resolved.exists(), f"{doc.name}: broken link {target}"
