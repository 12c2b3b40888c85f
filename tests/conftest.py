import pytest

from mixdih import calculus
from mixdih.cli import CheckRun, _checks_h56


@pytest.fixture(scope="session")
def toy():
    return calculus.build_toy()


@pytest.fixture(scope="session")
def h56():
    return calculus.build_h56()


@pytest.fixture(scope="session")
def p59(h56):
    return calculus.build_p59(h56)


@pytest.fixture(scope="session")
def h56_checks(h56):
    """The entries of one verify h56 battery, by check name."""
    run = CheckRun()
    _checks_h56(run, h56)
    return {entry["name"]: entry for entry in run.entries}
