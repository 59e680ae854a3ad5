"""Shared test settings: one deterministic hypothesis profile for every property test."""

from hypothesis import settings

# derandomized draws and no per-example deadline: the property tests replay
# the same examples on every run and cannot flake on a slow or busy machine
settings.register_profile("matholab", derandomize=True, deadline=None, max_examples=24,
                          database=None)
settings.load_profile("matholab")
