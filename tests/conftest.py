"""Shared test settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite tries the same examples. Each test
still sets its own max_examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
