import contextlib
import warnings

import pytest
from hypothesis import settings

# The same examples on every run, and no wall-clock deadline: a property test
# gives one result however loaded the machine is, and stays within a second
# or so of the suite's time.
settings.register_profile("rootmaps", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("rootmaps")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # On a failing example hypothesis' plugin imports libcst to suggest a patch,
    # and that import warns, which the suite's filterwarnings = error turns into
    # an INTERNALERROR that ends the session; import it first, warnings ignored.
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with contextlib.suppress(ImportError):
                import hypothesis.extra._patching  # noqa: F401
    yield
