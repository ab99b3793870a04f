# caylex first: it sets the library's one-BLAS-thread default, which takes
# effect only if numpy has not been imported yet, so every test runs on it
import caylex  # noqa: F401


def word_element(group, gen_indices):
    """Product of generators of ``group`` by index, left to right."""
    x = group.identity()
    for j in gen_indices:
        x = group.multiply(x, group.generators[j])
    return x


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scorecard lines, which per-test capture would
    otherwise hide for passing tests."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance scorecard")
    for name, ok in RESULTS:
        terminalreporter.write_line(
            f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
