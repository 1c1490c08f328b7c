#!/usr/bin/env python3
"""Doc-drift gate: the guides in docs/ must match the code they describe.

Three cross-checks, all against the living registries rather than
string expectations:

1. **Endpoint table** — the table in ``docs/wire-protocol.md`` must list
   exactly the routes both serving tiers dispatch from
   (``repro.service.httpbase.ROUTES`` + ``PREFIX_ROUTES``: the service
   and the shard router share one table). A parameterized route like
   ``/releases/{table}/{version}`` documents a prefix route by starting
   with its prefix. Missing, stale and verb-mismatched rows all fail.

2. **CLI subcommands** — every subcommand wired into ``repro.cli`` must
   be mentioned (backticked) somewhere in the docs tier, so ``repro
   --help`` never knows commands the documentation does not.

3. **CLI flags** — every backticked ``--flag`` in the docs must be an
   option of ``repro`` or of one of its subcommands (collected by walking
   ``build_parser()``), so a removed flag cannot linger in a guide. A code
   span that names a subcommand before its first flag (``search --k 3``,
   ``repro serve --shards N``) may use only that subcommand's options and
   the top-level ones.

Run from anywhere: ``python scripts/check_docs.py`` (CI runs it in the
``lint-invariants`` job). ``--docs-dir`` points at an alternative docs
tree, which is how ``tests/test_docs.py`` exercises the failure paths.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import _COMMANDS, build_parser  # noqa: E402
from repro.service.httpbase import PREFIX_ROUTES, ROUTES  # noqa: E402

#: A table row like ``| `/disclosure` | POST | ... |``.
ENDPOINT_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*([A-Z]+)\s*\|")
#: One inline code span, and a long option inside it.
CODE_SPAN = re.compile(r"`([^`]+)`")
LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def documented_endpoints(wire_doc: str) -> list[tuple[str, str]]:
    """``(method, path)`` pairs parsed from the endpoint table."""
    found = []
    for line in wire_doc.splitlines():
        match = ENDPOINT_ROW.match(line)
        if match and match.group(1).startswith("/"):
            found.append((match.group(2), match.group(1)))
    return found


def check_endpoints(docs_dir: Path) -> list[str]:
    """Bidirectional diff between the docs table and the server routes."""
    wire_path = docs_dir / "wire-protocol.md"
    if not wire_path.is_file():
        return [f"missing {wire_path}"]
    documented = documented_endpoints(wire_path.read_text(encoding="utf-8"))
    if not documented:
        return [f"{wire_path}: no endpoint table rows found"]

    errors = []
    # Every registered route must be documented (with the right verb).
    for path, (method, _handler) in ROUTES.items():
        if (method, path) not in documented:
            errors.append(
                f"{wire_path}: registered route {method} {path} is not in "
                "the endpoint table"
            )
    for prefix, (method, _handler) in PREFIX_ROUTES.items():
        if not any(
            m == method and p.startswith(prefix) for m, p in documented
        ):
            errors.append(
                f"{wire_path}: registered prefix route {method} {prefix}... "
                "has no endpoint-table row starting with the prefix"
            )

    # Every documented row must correspond to a registered route.
    for method, path in documented:
        exact = ROUTES.get(path)
        if exact is not None:
            if exact[0] != method:
                errors.append(
                    f"{wire_path}: {path} documented as {method} but "
                    f"registered as {exact[0]}"
                )
            continue
        prefix_hit = next(
            (
                reg
                for prefix, reg in PREFIX_ROUTES.items()
                if path.startswith(prefix)
            ),
            None,
        )
        if prefix_hit is None:
            errors.append(
                f"{wire_path}: documented endpoint {method} {path} is not "
                "a registered route"
            )
        elif prefix_hit[0] != method:
            errors.append(
                f"{wire_path}: {path} documented as {method} but its "
                f"prefix route is {prefix_hit[0]}"
            )
    return errors


def check_cli_commands(docs_dir: Path) -> list[str]:
    """Every ``repro`` subcommand must be backticked somewhere in docs/."""
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(docs_dir.glob("*.md"))
    )
    if not corpus:
        return [f"no markdown files under {docs_dir}"]
    errors = []
    for command in _COMMANDS:
        if not re.search(rf"`[^`]*\b{re.escape(command)}\b[^`]*`", corpus):
            errors.append(
                f"CLI subcommand {command!r} is not mentioned (backticked) "
                f"in any markdown file under {docs_dir}"
            )
    return errors


def cli_flags() -> tuple[set[str], dict[str, set[str]]]:
    """The option strings of ``repro`` itself, and of each subcommand."""
    parser = build_parser()
    top: set[str] = set()
    commands: dict[str, set[str]] = {}
    for action in parser._actions:
        top.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                commands[name] = {
                    flag
                    for sub_action in subparser._actions
                    for flag in sub_action.option_strings
                }
    return top, commands


def span_command(span: str) -> str | None:
    """The subcommand a code span names before its first flag, if any."""
    for word in span.split():
        if word.startswith("-"):
            return None
        if word in _COMMANDS:
            return word
    return None


def check_cli_flags(docs_dir: Path) -> list[str]:
    """Every backticked ``--flag`` in docs/ must be a ``repro`` option, and
    an option of the subcommand its span names, if it names one."""
    top, commands = cli_flags()
    known = top.union(*commands.values())
    errors = []
    for path in sorted(docs_dir.glob("*.md")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for span in CODE_SPAN.findall(line):
                command = span_command(span)
                if command is None:
                    allowed, owner = known, "any repro subcommand"
                else:
                    allowed = top | commands[command]
                    owner = f"`repro {command}`"
                for flag in LONG_FLAG.findall(span):
                    if flag not in allowed:
                        errors.append(
                            f"{path}:{lineno}: `{flag}` is not an option of "
                            f"{owner}"
                        )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--docs-dir",
        type=Path,
        default=REPO_ROOT / "docs",
        help="docs tree to check (default: the repo's docs/)",
    )
    args = parser.parse_args(argv)

    errors = check_endpoints(args.docs_dir)
    errors.extend(check_cli_commands(args.docs_dir))
    errors.extend(check_cli_flags(args.docs_dir))
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if not errors:
        routes = len(ROUTES) + len(PREFIX_ROUTES)
        print(
            f"check_docs: ok — {routes} routes, {len(_COMMANDS)} CLI "
            f"subcommands and every backticked flag documented in "
            f"{args.docs_dir}"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
