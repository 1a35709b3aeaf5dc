"""Hypothesis profiles.  Tier-1 runs the default; the CI fuzz step runs the
spec-grammar fuzz test longer with ``--hypothesis-profile=fuzz``."""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=2000)
