"""Legacy setup shim.

Kept so ``pip install -e .`` works in offline environments that lack the
``wheel`` package (PEP 660 editable builds need it; ``setup.py develop``
does not).  All metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "IoBT: a simulation and services library for the Internet of "
        "Battlefield Things (ICDCS 2018 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22", "scipy>=1.7", "networkx>=2.6"],
)
