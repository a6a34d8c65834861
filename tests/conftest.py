"""Shared test settings.

Property tests run under a fixed `hypothesis` profile: derandomized, so
every run draws the same examples, with no per-example deadline (the
first call pays numpy/scipy warm-up) and a capped example count, so the
whole property suite takes a few seconds on a 2-core machine.
"""

from hypothesis import settings

settings.register_profile("quadtrack", derandomize=True, deadline=None, max_examples=150)
settings.load_profile("quadtrack")
