import os
import sys
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.dirname(__file__))

# Hypothesis caches constants read from local source files; keep them out of the checkout.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "qmcool-hypothesis"))
