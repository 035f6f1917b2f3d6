"""Setuptools entry point.

The project metadata lives in the ``[project]`` table of ``pyproject.toml``
(the version is read from ``repro.__version__``); this file exists so that
``pip install -e .`` works in offline environments whose packaging toolchain
lacks the ``wheel`` package (legacy editable installs go through
``setup.py develop`` and do not need to build a wheel or download build
dependencies).
"""

from setuptools import setup

setup()
