"""Package metadata for the ModSRAM (DAC 2024) reproduction library.

No ``pyproject.toml`` is used so that editable installs keep working on
environments whose setuptools predates PEP 660 editable-wheel support
(no ``wheel`` package available offline).  The library is pure Python with
no runtime dependencies.
"""

import re

from setuptools import find_packages, setup


def read_version() -> str:
    """The single source of truth is ``repro.__version__``.

    Parsed textually (not imported) so ``setup.py`` works before the
    package's dependencies — none today, but that is incidental — are
    importable in the build environment.
    """
    with open("src/repro/__init__.py", encoding="utf-8") as handle:
        match = re.search(
            r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE
        )
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="modsram-repro",
    version=read_version(),
    description=(
        "Reproduction of 'ModSRAM: Algorithm-Hardware Co-Design for Large "
        "Number Modular Multiplication in SRAM' (DAC 2024): R4CSA-LUT in a "
        "layered simulation core (analytical/cycle/RTL fidelity tiers "
        "plus an N-macro chip model), PIM baselines, ECC/ZKP "
        "substrates behind a unified Engine API, a dependency-aware "
        "Workload Graph API with an asyncio serving layer, and a "
        "declarative, in-process Experiment API for every table and "
        "figure."
    ),
    long_description=open("src/repro/__init__.py").read().split('"""')[1],
    long_description_content_type="text/x-rst",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: Security :: Cryptography",
    ],
)
