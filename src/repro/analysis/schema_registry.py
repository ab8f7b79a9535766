"""Checker 4 — schema tags have a single source (``SCH*``).

Every emitted JSON document carries a ``repro.<family>/v<N>`` schema
tag; the cell store, CI artifact consumers and the bench-history reader
all dispatch on it.  Two definitions of one family are how emitters and
consumers drift apart silently.  :mod:`repro.schemas` is the single
place a tag literal may be written; everything else imports the
constant.

Rules:

* ``SCH001`` — a ``repro.*/vN`` string literal anywhere outside
  ``src/repro/schemas.py`` (docstrings excepted: text that merely
  documents a tag is fine).
* ``SCH002`` — one family bound to more than one literal inside
  ``schemas.py`` (duplicate or conflicting versions).
* ``SCH003`` — a tag literal inside ``schemas.py`` that is not the
  value of a module-level constant (hidden definitions dodge the
  registry).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.base import (
    MODULE_SCOPE,
    Finding,
    Project,
    docstring_nodes,
    walk_scoped,
)

#: Invariant id (artifact-consumer contract; README "CI" section).
INVARIANT = "schema-single-source"

#: The registry module.
SCHEMAS_PATH = "src/repro/schemas.py"

#: What counts as a schema tag.
SCHEMA_PATTERN = re.compile(r"repro\.[a-z0-9-]+/v\d+\Z")


def _family(tag: str) -> str:
    return tag.split("/", 1)[0]


def check(project: Project) -> Iterator[Finding]:
    """Run the schema-registry rules over the project."""
    for source in project.files:
        skip = docstring_nodes(source.tree)
        if source.path == SCHEMAS_PATH:
            yield from _check_registry(source.path, source.tree, skip)
            continue
        for node, scope in walk_scoped(source.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and SCHEMA_PATTERN.fullmatch(node.value)
                and id(node) not in skip
            ):
                yield Finding(
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="SCH001",
                    invariant=INVARIANT,
                    scope=scope,
                    message=(
                        f"schema tag literal '{node.value}' outside "
                        "the registry"
                    ),
                    hint="import the constant from repro.schemas",
                )


def _check_registry(path: str, tree: ast.Module, skip: set[int]) -> Iterator[Finding]:
    registered: set[int] = set()
    families: dict[str, str] = {}
    for statement in tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        value = statement.value
        if not (
            isinstance(value, ast.Constant)
            and isinstance(value.value, str)
            and SCHEMA_PATTERN.fullmatch(value.value)
        ):
            continue
        registered.add(id(value))
        family = _family(value.value)
        if family in families:
            yield Finding(
                path=path,
                line=value.lineno,
                col=value.col_offset,
                rule="SCH002",
                invariant=INVARIANT,
                scope=MODULE_SCOPE,
                message=(
                    f"family '{family}' defined twice "
                    f"({families[family]} and {value.value})"
                ),
                hint="one family, one current version",
            )
        else:
            families[family] = value.value
    for node, scope in walk_scoped(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and SCHEMA_PATTERN.fullmatch(node.value)
            and id(node) not in skip
            and id(node) not in registered
        ):
            yield Finding(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                rule="SCH003",
                invariant=INVARIANT,
                scope=scope,
                message=(
                    f"tag '{node.value}' is not a module-level "
                    "constant of the registry"
                ),
                hint="bind every tag to one top-level module constant",
            )
