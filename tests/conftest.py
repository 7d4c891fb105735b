import sys

import pytest

from orelab import census_critical, suites

ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def census4_8():
    return census_critical(8, 4)


@pytest.fixture(scope="session")
def census5_8():
    return census_critical(8, 5)


def suite_caches() -> list:
    """Every lru_cache that orelab.suites defines, found by its cache_info,
    so a cache added there later is cleared too."""
    return [
        value
        for value in vars(suites).values()
        if hasattr(value, "cache_info") and value.__module__ == suites.__name__
    ]


def clear_suite_stores() -> None:
    """Empty every store of orelab.suites: each of its lru_caches."""
    for cache in suite_caches():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_tree_records():
    """The tree suites keep the records of the last trees they read, each
    subtree graph's packing among them; a test that patches the packer or
    its cap must not read what another test stored, so every test starts
    and ends with no stored record or default input."""
    clear_suite_stores()
    yield
    clear_suite_stores()


@pytest.fixture
def calls_to(monkeypatch):
    """``calls_to(module, name)`` wraps ``module.name`` for the test and
    returns the list that each call's positional arguments are appended to;
    with ``everywhere=True`` every orelab module that binds the same
    function is patched too."""

    def wrap(module, name: str, everywhere: bool = False) -> list[tuple]:
        real = getattr(module, name)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        holders = [module]
        if everywhere:
            holders = [m for key, m in list(sys.modules.items()) if key.startswith("orelab") and getattr(m, name, None) is real]
        for holder in holders:
            monkeypatch.setattr(holder, name, recording)
        return calls

    return wrap


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
