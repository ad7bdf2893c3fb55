"""Hypothesis settings for the test suite: each property draws the same
examples on every run (derandomize), so a near-boundary case cannot pass on
one run and fail on the next, and a failure prints the blob that replays it.
Each test's own max_examples still applies."""

import warnings

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, print_blob=True)
settings.load_profile("derandomized")

# Hypothesis's pytest plugin imports this module to report a failing example;
# one of its dependencies warns on import, which filterwarnings = error would
# turn into an internal error that hides the report.  Import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching
    except ImportError:
        pass
