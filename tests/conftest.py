"""Suite-wide test settings.

Hypothesis draws are derandomized: every run of the suite tries the same
examples and replays nothing from a local example database, so a rare
draw cannot turn the suite red at random.  Each test keeps its own
max_examples.  Runs outside the default suite can draw fresh examples:

    HYPOTHESIS_PROFILE=random python -m pytest -q
"""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
