"""Settings shared by the whole test suite.

HYPOTHESIS_PROFILE=ci selects the "ci" profile: the same example counts as
the default, but derandomized, so each property test draws the same examples
on every run and cannot pass on one run and fail on the next.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
