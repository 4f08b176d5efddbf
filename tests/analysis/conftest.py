"""``--hypothesis-profile=analysis-ci`` is the larger example budget the
CI ``analysis`` job fuzzes with; tier-1 runs hypothesis's default."""

from hypothesis import settings

settings.register_profile("analysis-ci", max_examples=600, deadline=None)
