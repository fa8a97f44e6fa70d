"""Hypothesis settings for the whole suite.

The property tests are exact and their inputs small, but a loaded host can
stretch one example past hypothesis's default 200 ms deadline and fail a
correct run.  This profile turns the per-example deadline off and keeps
every other setting, the number of examples included, at its default.
"""

from hypothesis import settings

settings.register_profile("superbc", deadline=None)
settings.load_profile("superbc")
