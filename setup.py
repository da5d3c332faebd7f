"""Build shim for `python setup.py develop`; pyproject.toml declares the package."""

from setuptools import setup

setup()
