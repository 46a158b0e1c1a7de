import sys
import warnings

# When a hypothesis test fails, hypothesis imports hypothesis.extra._patching,
# and with it libcst, inside pytest's report hook.  libcst builds a
# mypy_extensions.TypedDict, whose DeprecationWarning under -W error turns the
# failure report into an INTERNALERROR.  Importing the module here, with that
# one warning ignored, keeps failures readable; pytest applies -W after any
# ini filterwarnings entry, so an ini entry cannot do this.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # hypothesis without libcst reports failures plainly
        pass


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
