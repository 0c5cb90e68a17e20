import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Fixed draws for CI (``pytest --hypothesis-profile=ci``): a failure there
# replays locally with the same flag.
settings.register_profile("ci", derandomize=True)
