"""REP004 — stats counters and the ``/stats`` assembly agree.

A counter is incremented on a ``*Stats`` object in ``service/`` /
``engine/`` code and surfaced through that class's ``as_dict`` (the
``/stats`` payload); nothing at runtime ties the two together, so a new
counter that never reaches ``as_dict`` is silently invisible.

Two statically checkable links:

1. every counter attribute initialized in a ``*Stats`` class (``__init__``
   int assignment or dataclass int field) is read in that class's
   ``as_dict``;
2. every ``<something stats>.attr += ...`` increment in ``service/`` /
   ``engine/`` targets an attribute some ``*Stats`` class declares.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.core import Finding, Project, Rule, register_rule

STATS_DIRS = ("src/repro/service", "src/repro/engine")


class _StatsClass:
    def __init__(self, file_rel: str, node: ast.ClassDef) -> None:
        self.file_rel = file_rel
        self.node = node
        self.counters: set[str] = set()  # int-valued, must be exposed
        self.declared: set[str] = set()  # every initialized attribute
        self.as_dict_reads: set[str] = set()
        self.has_as_dict = False
        self._collect()

    def _collect(self) -> None:
        for item in self.node.body:
            # dataclass-style: `evaluations: int = 0` at class level
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
            ):
                self.declared.add(item.target.id)
                if (
                    isinstance(item.annotation, ast.Name)
                    and item.annotation.id == "int"
                ):
                    self.counters.add(item.target.id)
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                for stmt in ast.walk(item):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self.declared.add(target.attr)
                            if isinstance(
                                stmt.value, ast.Constant
                            ) and isinstance(stmt.value.value, int):
                                self.counters.add(target.attr)
            elif item.name == "as_dict":
                self.has_as_dict = True
                for sub in ast.walk(item):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        self.as_dict_reads.add(sub.attr)


@register_rule
class StatsCounterDrift(Rule):
    id = "REP004"
    title = "stats-counter drift"
    contract = (
        "every stats counter is exposed by its class's as_dict, and every "
        "increment targets a declared counter"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        stats_classes: list[_StatsClass] = []
        for stats_dir in STATS_DIRS:
            for file in project.in_dir(stats_dir):
                if file.parse_error is not None:
                    continue
                for node in ast.walk(file.tree):
                    if isinstance(node, ast.ClassDef) and node.name.endswith(
                        "Stats"
                    ):
                        stats_classes.append(_StatsClass(file.rel, node))

        # Link 1: counter initialized but invisible in /stats output.
        for cls in stats_classes:
            if not cls.has_as_dict:
                continue
            file = project.get(cls.file_rel)
            assert file is not None
            for counter in sorted(cls.counters - cls.as_dict_reads):
                yield self.finding(
                    file,
                    cls.node.lineno,
                    f"counter `{counter}` of `{cls.node.name}` is "
                    "initialized but never read in as_dict() — it can "
                    "never reach /stats",
                )

        # Link 2: increments on stats objects must hit declared attributes.
        declared = set().union(*(c.declared for c in stats_classes), set())
        if stats_classes:
            for stats_dir in STATS_DIRS:
                for file in project.in_dir(stats_dir):
                    if file.parse_error is not None:
                        continue
                    for node in ast.walk(file.tree):
                        if not isinstance(node, ast.AugAssign):
                            continue
                        target = node.target
                        if not isinstance(target, ast.Attribute):
                            continue
                        base = dotted_name(target.value)
                        if base is None or "stats" not in base.lower():
                            continue
                        if target.attr not in declared:
                            yield self.finding(
                                file,
                                node.lineno,
                                f"increment of `{base}.{target.attr}` but "
                                "no *Stats class declares "
                                f"`{target.attr}`",
                            )
