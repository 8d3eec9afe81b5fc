"""Hypothesis profiles.

With the CI environment variable set, property tests run the `ci` profile:
a fixed example sequence, and a failure prints the blob that replays it, so
`CI=1 python -m pytest ...` reproduces a CI failure locally.  Without it,
each run searches new random examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
