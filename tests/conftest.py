import fractions
import sys

import pytest

from psicalc.psi_context import get_context


def pytest_terminal_summary(terminalreporter):
    mod = next(
        (m for name, m in sys.modules.items()
         if name.rpartition(".")[2] == "test_acceptance" and m is not None),
        None,
    )
    lines = getattr(mod, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def nat():
    return get_context("natural", 24)


@pytest.fixture(scope="session")
def qsym():
    return get_context("q", 16)


@pytest.fixture(scope="session")
def qnum():
    return get_context("q=3/2", 16)


@pytest.fixture(scope="session")
def fib():
    return get_context("fib", 16)


def _fractions_made_under(codes, run) -> list:
    """The functions among ``codes`` under which ``run()`` made a Fraction, one name per Fraction.

    A profile hook sees every construction, including the ones Fraction
    arithmetic makes through ``_from_coprime_ints`` on Python 3.12+.
    """
    made = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
                "__new__", "_from_coprime_ints"):
            caller = frame.f_back
            while caller is not None and caller.f_code not in codes:
                caller = caller.f_back
            if caller is not None:
                made.append(caller.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(old)
    return made


@pytest.fixture(scope="session")
def fractions_made_under():
    return _fractions_made_under
