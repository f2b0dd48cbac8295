from hypothesis import settings

# The same examples on every run, and no per-example deadline on slow hosts.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
