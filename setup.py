"""Packaging for the ``repro`` simulator.

``pip install .`` installs it.  Offline, where setuptools predates
bundled wheel support (the PEP 660 editable path of ``pip install -e .``
needs the ``wheel`` package), ``python setup.py develop`` installs it
editable.  NumPy is the only runtime dependency.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("A simulator of best-effort cache synchronization with "
                 "source cooperation (Olston & Widom, SIGMOD 2002)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
