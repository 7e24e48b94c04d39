"""Test-suite settings.

Hypothesis draws its examples from a fixed seed per test and keeps no example
database, so every run of the suite checks the same examples. Its remaining
cache (constants read from the source files) goes to the temp directory, so a
test run leaves no ``.hypothesis/`` directory in the checkout.
"""
import os
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
if not os.getenv("HYPOTHESIS_STORAGE_DIRECTORY"):
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "discrep-hypothesis")
