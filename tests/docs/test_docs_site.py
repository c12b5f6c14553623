"""The docs site stays honest without mkdocs installed.

CI builds the site with ``mkdocs build --strict``; these tests
approximate the strict checks in plain pytest so a broken link, a stale
generated page or an undocumented public object fails *every* test run,
not just the docs job:

* every internal markdown link resolves to a real file;
* every ``mkdocs.yml`` nav entry resolves to a real page, and the
  reference pages are reachable from the nav;
* the generated reference pages match a fresh regeneration (drift gate);
* every top-level public object of ``repro.engine``, ``repro.service``,
  ``repro.workloads`` and ``repro.cluster`` carries a docstring
  (doc-coverage gate).
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import re

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
DOCS_DIR = os.path.join(REPO_ROOT, "docs")
MKDOCS_YML = os.path.join(REPO_ROOT, "mkdocs.yml")

#: Markdown links: [text](target), ignoring images' extra bang.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _load_generator():
    path = os.path.join(REPO_ROOT, "tools", "generate_docs.py")
    spec = importlib.util.spec_from_file_location("generate_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _markdown_files():
    for root, _, names in os.walk(DOCS_DIR):
        for name in sorted(names):
            if name.endswith(".md"):
                yield os.path.join(root, name)


def _nav_pages():
    """Every page path mentioned in the mkdocs nav (regex, no yaml dep)."""
    with open(MKDOCS_YML, "r", encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r":\s*([\w./-]+\.md)\s*$", text, flags=re.MULTILINE)


class TestSiteStructure:
    def test_mkdocs_config_exists_and_is_strict(self):
        with open(MKDOCS_YML, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert "strict: true" in text
        assert "nav:" in text

    def test_every_nav_entry_resolves(self):
        pages = _nav_pages()
        assert pages, "mkdocs nav lists no pages"
        for page in pages:
            assert os.path.exists(os.path.join(DOCS_DIR, page)), (
                f"mkdocs nav references missing page {page}"
            )

    def test_core_pages_are_in_the_nav(self):
        pages = set(_nav_pages())
        for required in (
            "index.md",
            "quickstart.md",
            "architecture.md",
            "serving.md",
            "cluster.md",
            "artifacts.md",
            "reference/cli.md",
            "reference/engine.md",
            "reference/service.md",
            "reference/workloads.md",
            "reference/cluster.md",
            "dse.md",
            "reference/dse.md",
        ):
            assert required in pages, f"{required} missing from mkdocs nav"

    def test_internal_links_resolve(self):
        """The pytest stand-in for ``mkdocs build --strict`` link checking."""
        broken = []
        for path in _markdown_files():
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            for target in _LINK.findall(text):
                if "://" in target or target.startswith(("mailto:", "#")):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), relative)
                )
                if not os.path.exists(resolved):
                    broken.append(
                        f"{os.path.relpath(path, REPO_ROOT)} -> {target}"
                    )
        assert not broken, "broken internal links:\n" + "\n".join(broken)


class TestGeneratedReference:
    def test_generated_pages_are_fresh(self):
        """Committed reference pages must match a fresh regeneration."""
        generator = _load_generator()
        for relative, content in generator.generate().items():
            path = os.path.join(generator.OUTPUT_DIR, relative)
            assert os.path.exists(path), (
                f"docs/reference/{relative} missing; run "
                "python tools/generate_docs.py"
            )
            with open(path, "r", encoding="utf-8") as handle:
                committed = handle.read()
            assert committed == content, (
                f"docs/reference/{relative} is stale; run "
                "python tools/generate_docs.py"
            )

    def test_cli_page_covers_every_subcommand(self):
        from repro.cli import build_parser

        with open(
            os.path.join(DOCS_DIR, "reference", "cli.md"), encoding="utf-8"
        ) as handle:
            text = handle.read()
        parser = build_parser()
        import argparse

        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name in subparsers.choices:
            assert f"`repro {name}`" in text, (
                f"CLI reference is missing subcommand {name!r}"
            )
        assert "--workers" in text, "serve --workers missing from CLI docs"


class TestDocCoverage:
    """Top-level public objects of the user-facing subsystems are documented."""

    MODULES = (
        "repro.engine",
        "repro.service",
        "repro.workloads",
        "repro.cluster",
        "repro.dse",
    )

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_surface_has_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert (module.__doc__ or "").strip(), f"{module_name} has no docstring"
        undocumented = []
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not (inspect.getdoc(obj) or "").strip():
                undocumented.append(name)
        assert not undocumented, (
            f"{module_name}.__all__ entries without docstrings: "
            f"{undocumented}"
        )

    @pytest.mark.parametrize("module_name", MODULES)
    def test_generator_enforces_the_same_gate(self, module_name):
        """The docs build fails on missing docstrings, not just this test."""
        generator = _load_generator()
        # Raises DocCoverageError (failing this test) if coverage regresses.
        page = generator.render_api_page(module_name)
        assert page.startswith(generator.GENERATED_NOTE)
