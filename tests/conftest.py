"""Settings shared by the test modules."""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without hypothesis
    set_hypothesis_home_dir = None
else:
    # The same examples on every run, and no example database.
    settings.register_profile("tier1", derandomize=True, database=None, max_examples=40, deadline=None)
    settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis also caches the constants it mines from local sources, as
    # test collection starts; keep that cache out of the working tree.
    if set_hypothesis_home_dir is not None:
        home = tempfile.TemporaryDirectory(prefix="hypothesis-")
        config.add_cleanup(home.cleanup)
        set_hypothesis_home_dir(home.name)
