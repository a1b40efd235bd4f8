"""Shared pytest configuration: hypothesis profiles.

Two profiles, selected by the ``HYPOTHESIS_PROFILE`` environment
variable (CI exports ``ci``; anything else falls back to ``dev``):

``dev``
    Library defaults minus the deadline (view gathering on the larger
    generated graphs is legitimately slow on shared machines).

``ci``
    More examples and a fixed, derandomized seed — every CI run drills
    the exact same example sequence, so a red build is reproducible by
    exporting the same variable locally.

Tests that pin their own ``@settings(...)`` keep their pinned values;
profiles only fill in what a test leaves unspecified.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci",
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
