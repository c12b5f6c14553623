"""Every markdown file the code names exists in the repository.

Docstrings and comments under ``src/``, ``benchmarks/``, ``examples/`` and
``tools/`` send readers to markdown pages for facts they do not repeat.  A
named path such as ``docs/serving.md`` must resolve from the repository
root or from the naming file's directory, or be the tail of a markdown
path in the repository; a bare name such as ``cli.md`` may match any
markdown file of that name.
"""

from __future__ import annotations

import os
import re

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
CODE_DIRS = ("src", "benchmarks", "examples", "tools")

#: A markdown path: word characters, dots, slashes and dashes ending ``.md``.
_MARKDOWN_PATH = re.compile(r"[\w./-]*\w\.md\b")


def _walk(top):
    for root, dirs, names in os.walk(top):
        dirs[:] = [d for d in dirs if not d.startswith(".") and d != "__pycache__"]
        for name in sorted(names):
            yield os.path.join(root, name)


def _repo_markdown():
    return {
        os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        for path in _walk(REPO_ROOT)
        if path.endswith(".md")
    }


def _named_markdown():
    """``(naming file, named path)`` for every markdown path in the code."""
    for directory in CODE_DIRS:
        for path in _walk(os.path.join(REPO_ROOT, directory)):
            with open(path, "r", encoding="utf-8", errors="ignore") as handle:
                text = handle.read()
            for name in sorted(set(_MARKDOWN_PATH.findall(text))):
                yield os.path.relpath(path, REPO_ROOT), name


def _resolves(naming_file, name, markdown):
    if "/" not in name:
        return any(path.rsplit("/", 1)[-1] == name for path in markdown)
    candidates = {
        os.path.normpath(name),
        os.path.normpath(os.path.join(os.path.dirname(naming_file), name)),
    }
    if any(path.replace(os.sep, "/") in markdown for path in candidates):
        return True
    tail = "/" + name.lstrip("./")
    return any(path.endswith(tail) for path in markdown)


def test_every_named_markdown_file_exists():
    markdown = _repo_markdown()
    named = list(_named_markdown())
    assert named, "no markdown path found in the code: is the pattern broken?"
    dangling = [
        f"{naming_file}: {name}"
        for naming_file, name in named
        if not _resolves(naming_file, name, markdown)
    ]
    assert not dangling, "markdown paths that name no file:\n" + "\n".join(dangling)
