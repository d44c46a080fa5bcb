"""Setuptools entry point.

Carries the full packaging metadata (rather than delegating to
``pyproject.toml``'s ``[project]`` table) so that editable installs work on
environments with older setuptools/pip combinations (no ``wheel`` package
available for PEP 660 builds).  ``pyproject.toml`` holds the build-system
pin and the ruff configuration CI lints with.

The tests, sharded-smoke and perf-track CI jobs install the package as
``pip install -e .[test]``; the ``test`` extra matches exactly what they
need to run the tier-1 suite and the benchmarks.  The lint and
examples-smoke jobs install it without the extra: ``numpy`` is the only
runtime dependency.
"""

from setuptools import find_packages, setup

setup(
    name="pluto-repro",
    version="0.3.0",
    description=(
        "Reproduction of pLUTo: enabling massively parallel computation "
        "in DRAM via lookup tables (MICRO 2022)"
    ),
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
        ],
        "lint": ["ruff"],
    },
)
