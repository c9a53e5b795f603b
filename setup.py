"""Legacy setup shim.

PEP 660 editable installs (``pip install -e .``) need the ``wheel``
package; where it is missing, ``python setup.py develop`` installs the
package editable through this shim. All metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
