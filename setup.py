"""Setuptools metadata for the ``repro`` package.

The package lives under ``src/``; ``pip install -e .`` installs it in
editable mode.  The tests and scripts need no install: run them from the
repo root with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
