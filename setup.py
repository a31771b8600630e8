"""Minimal setup shim so `python setup.py develop` works in offline
environments where pip cannot build an editable wheel (no `wheel` package).
All project metadata lives in pyproject.toml."""

from setuptools import setup

setup(entry_points={
    "console_scripts": [
        # Also reachable without installation: python -m repro.obs.explain
        "repro-explain=repro.obs.explain:main",
        # Also reachable without installation: python -m repro.obs.runs
        "repro-runs=repro.obs.runs:main",
    ],
})
