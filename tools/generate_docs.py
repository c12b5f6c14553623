#!/usr/bin/env python
"""Generate the docs-site reference pages from the code itself.

Two kinds of pages, both committed under ``docs/reference/`` and kept
honest by ``tests/docs/test_docs_site.py`` (regeneration must be a
no-op) and by the CI docs job (which regenerates with ``--check`` before
``mkdocs build --strict``):

* ``cli.md`` — every ``repro`` subcommand with its options, introspected
  from the argparse parser so the page cannot lag the CLI;
* ``engine.md`` / ``service.md`` / ``workloads.md`` / ``cluster.md`` —
  the public surface (``__all__``) of the user-facing subsystems,
  signatures and docstrings included.

Generation doubles as the doc-coverage gate: a public object without a
docstring fails the run (and therefore CI).

Usage::

    python tools/generate_docs.py            # (re)write docs/reference/
    python tools/generate_docs.py --check    # fail if anything would change
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
import typing

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

OUTPUT_DIR = os.path.join(REPO_ROOT, "docs", "reference")

#: The public API surfaces the reference covers (and the doc-coverage
#: gate guards).
API_MODULES = (
    "repro.engine",
    "repro.service",
    "repro.workloads",
    "repro.cluster",
    "repro.hdl",
    "repro.dse",
)

GENERATED_NOTE = (
    "<!-- AUTO-GENERATED by tools/generate_docs.py — edit the docstrings "
    "or the CLI, then regenerate. -->\n\n"
)


class DocCoverageError(Exception):
    """A public object is missing the docstring the docs are built from."""


def _docstring(module_name: str, name: str, obj: object) -> str:
    doc = inspect.getdoc(obj)
    if not doc or not doc.strip():
        raise DocCoverageError(
            f"{module_name}.{name} is public (listed in __all__) but has "
            "no docstring; the API reference is generated from docstrings"
        )
    return doc.strip()


def _signature(obj: object) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    # A NamedTuple's fields reach ``__new__`` as ForwardRefs; render them
    # as the quoted strings every other postponed annotation shows as.
    return str(signature.replace(parameters=[
        parameter.replace(annotation=parameter.annotation.__forward_arg__)
        if isinstance(parameter.annotation, typing.ForwardRef)
        else parameter
        for parameter in signature.parameters.values()
    ]))


def _first_paragraph(doc: str) -> str:
    return doc.split("\n\n", 1)[0].replace("\n", " ")


def _class_methods(cls: type):
    """The class's own public methods/properties, in definition order."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member.fget, "property"
        elif isinstance(member, (staticmethod, classmethod)):
            yield name, member.__func__, "method"
        elif inspect.isfunction(member):
            yield name, member, "method"


def render_api_page(module_name: str) -> str:
    """One subsystem's public surface as a markdown reference page."""
    module = importlib.import_module(module_name)
    module_doc = _docstring(module_name, "__doc__", module)
    exported = list(getattr(module, "__all__", ()))
    lines = [
        GENERATED_NOTE,
        f"# `{module_name}` API reference\n",
        "\n",
        module_doc,
        "\n",
    ]
    for name in exported:
        obj = getattr(module, name)
        doc = _docstring(module_name, name, obj)
        if inspect.isclass(obj):
            kind = (
                "exception" if issubclass(obj, BaseException) else "class"
            )
            lines.append(f"\n## {kind} `{name}{_signature(obj)}`\n\n")
            lines.append(doc + "\n")
            methods = [
                entry
                for entry in _class_methods(obj)
                if entry[1] is not None and inspect.getdoc(entry[1])
            ]
            if methods and kind == "class":
                lines.append("\n")
                for method_name, func, member_kind in methods:
                    method_doc = _first_paragraph(inspect.getdoc(func) or "")
                    suffix = (
                        "" if member_kind == "property" else _signature(func)
                    )
                    lines.append(
                        f"- **`{method_name}{suffix}`** — {method_doc}\n"
                    )
        elif callable(obj):
            lines.append(f"\n## function `{name}{_signature(obj)}`\n\n")
            lines.append(doc + "\n")
        else:
            lines.append(f"\n## data `{name}`\n\n")
            lines.append(doc + "\n")
    return "".join(lines)


def _action_options(action: argparse.Action) -> str:
    if action.option_strings:
        flags = ", ".join(f"`{flag}`" for flag in action.option_strings)
        if action.nargs != 0 and action.metavar is not None:
            flags += f" `{action.metavar}`"
        elif action.nargs != 0 and action.type is not None:
            flags += f" `{action.dest.upper()}`"
        return flags
    return f"`{action.metavar or action.dest}`"


def _render_parser(name: str, parser: argparse.ArgumentParser, depth: int) -> str:
    lines = [f"\n{'#' * depth} `{name}`\n\n"]
    if parser.description:
        lines.append(parser.description.strip() + "\n\n")
    rows = []
    subcommands = {}
    for action in parser._actions:  # argparse has no public walk API
        if isinstance(action, argparse._SubParsersAction):
            subcommands = dict(action.choices)
            continue
        if isinstance(action, argparse._HelpAction):
            continue
        default = ""
        if (
            action.default is not None
            and action.default is not argparse.SUPPRESS
            and not isinstance(action, argparse._StoreTrueAction)
        ):
            default = f"`{action.default!r}`"
        rows.append(
            (_action_options(action), (action.help or "").strip(), default)
        )
    if rows:
        lines.append("| argument | description | default |\n")
        lines.append("|---|---|---|\n")
        for flags, help_text, default in rows:
            lines.append(f"| {flags} | {help_text} | {default} |\n")
    for sub_name, sub_parser in subcommands.items():
        lines.append(_render_parser(f"{name} {sub_name}", sub_parser, depth + 1))
    return "".join(lines)


def render_cli_page() -> str:
    """Every ``repro`` subcommand, introspected from the argparse tree."""
    from repro.cli import build_parser

    parser = build_parser()
    lines = [
        GENERATED_NOTE,
        "# CLI reference\n\n",
        "The `repro` console script (also `python -m repro`) exposes every "
        "subsystem from the shell.  Integer values may be decimal or "
        "`0x`-prefixed hexadecimal.\n",
    ]
    subparsers_action = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for name, sub_parser in subparsers_action.choices.items():
        lines.append(_render_parser(f"repro {name}", sub_parser, 2))
    return "".join(lines)


def generate() -> dict:
    """Render every reference page; returns ``{relative path: content}``."""
    pages = {"cli.md": render_cli_page()}
    for module_name in API_MODULES:
        pages[module_name.split(".", 1)[1] + ".md"] = render_api_page(
            module_name
        )
    return pages


def main(argv=None) -> int:
    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the committed pages are stale",
    )
    arguments = argument_parser.parse_args(argv)
    pages = generate()
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    stale = []
    for relative, content in pages.items():
        path = os.path.join(OUTPUT_DIR, relative)
        existing = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                existing = handle.read()
        if existing == content:
            continue
        if arguments.check:
            stale.append(relative)
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote docs/reference/{relative}")
    if arguments.check and stale:
        print(
            "stale reference pages (run python tools/generate_docs.py): "
            + ", ".join(sorted(stale))
        )
        return 1
    if arguments.check:
        print("docs/reference is up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
