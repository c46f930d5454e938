"""Test-suite settings: one fixed profile for the hypothesis property tests.

The profile is derandomized, so every run draws the same examples, and it
bounds the example count, so the suite's runtime stays bounded.  Deadlines
are off because per-example time depends on the machine, not the code.
"""

from hypothesis import settings

settings.register_profile("tagparse", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("tagparse")
