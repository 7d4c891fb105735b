import pytest

from orelab import census_critical, suites

ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def census4_8():
    return census_critical(8, 4)


@pytest.fixture(scope="session")
def census5_8():
    return census_critical(8, 5)


@pytest.fixture(autouse=True)
def cold_tree_records():
    """The tree suites keep each tree's packed subtrees for later runs; a test
    that patches the packer or its cap must not read records another test
    built, so every test starts and ends with none."""
    suites._tree_record.cache_clear()
    yield
    suites._tree_record.cache_clear()


@pytest.fixture(scope="session")
def acceptance_log():
    def record(criterion: int, line: str) -> None:
        ACCEPTANCE_LINES.append((criterion, line))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for criterion, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(f"criterion {criterion:2d}: pass - {line}")
