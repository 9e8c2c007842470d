"""Setup shim.

All metadata lives in ``pyproject.toml``; with network access,
``pip install -e .`` is all it takes.  Offline, where pip cannot fetch
the build backend (and a ``--no-use-pep517`` install would also need
the ``wheel`` package), this shim enables the legacy path:

    python setup.py develop
"""

from setuptools import setup

setup()
