"""Suite-wide test settings.

Hypothesis runs derandomized: each property test draws the same examples
on every run (seeded from the test's own code), with the max_examples its
@settings gives.  A failure therefore reproduces on the next run, and the
suite's pass count does not depend on the draw.

The acceptance tests print one [PASS]/[FAIL] line each, but pytest's
file-descriptor capture swallows stdout for passing tests.  The hook below
replays every recorded line in the terminal summary so a plain
`pytest -v` run always shows the thirteen criterion lines.
"""

import sys

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "RECORDED_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.RECORDED_LINES:
                terminalreporter.write_line(line)
            break
