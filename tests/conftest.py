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
def rho_power(p59):
    """(w, e) -> rho**e(w) for a word w of h56: conjugation by r**e in
    p59, whose exponent word is e, read back from the layered part."""
    return lambda w, e: p59.conjugate(w << 3, e) >> 3


@pytest.fixture(scope="session")
def toy_sylow(toy):
    """P_toy = toy:<sigma, tau>, the split extension of order 2**11 by the
    toy's dihedral Sylow 2-subgroup of letter maps: sigma = (4, 8, 1, 2)
    swaps the letter blocks, tau = (4, 8, 2, 1) is the 4-cycle
    x1 -> y1 -> x2 -> y2, and tau**2 = (2, 1, 8, 4)."""
    maps = [(4, 8, 1, 2), (4, 8, 2, 1), (2, 1, 8, 4)]
    return calculus.split_extension(toy, maps, ["s", "t", "t2"], "toy_sylow")


@pytest.fixture(scope="session")
def h56_checks(h56):
    """The entries of one verify h56 battery, by check name."""
    run = CheckRun()
    _checks_h56(run, h56)
    return {entry["name"]: entry for entry in run.entries}
