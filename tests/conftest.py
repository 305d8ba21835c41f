import random
from fractions import Fraction

import pytest
from hypothesis import settings

import momentkit.positivity as positivity
from momentkit import (_cli_trees, _extension, _recovery, _recurrence,  # noqa: F401
                       _roots, completion, principal)
from momentkit.measure import AtomicMeasure

# Every module is loaded before a test runs: a test that counts the calls of
# a function through each alias the package's modules hold must find the
# aliases that the private siblings (`_roots`, `_recurrence`, `_recovery`,
# `_extension`, `_cli_trees`) import, and no sibling may first load while
# such a count is patched in, or it would keep the counting wrapper.

# property tests replay the same examples on every run and stay short; the
# deep profile replays more of them (--hypothesis-profile=deep)
settings.register_profile("momentkit", derandomize=True, deadline=None,
                          max_examples=40)
settings.register_profile("deep", derandomize=True, deadline=None,
                          max_examples=300)


def pytest_configure(config):
    # the default profile, unless --hypothesis-profile names one: whichever
    # of this hook and Hypothesis's own runs first, an explicit profile wins
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("momentkit")


def rational(rng, num_max=24, den_max=12):
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def random_rational_measure(rng, atoms, num_max=24, den_max=12,
                            mass_num_max=12, mass_den_max=8):
    positions = set()
    while len(positions) < atoms:
        positions.add(rational(rng, num_max, den_max))
    pairs = [(p, Fraction(rng.randint(1, mass_num_max), rng.randint(1, mass_den_max)))
             for p in sorted(positions)]
    return AtomicMeasure(pairs)


def random_half_open_measure(rng, atoms, include_one=False):
    positions = set()
    if include_one:
        positions.add(Fraction(1))
    while len(positions) < atoms:
        num = rng.randint(1, 16)
        den = rng.randint(num + 1, num + 16)  # interior atoms stay below 1
        positions.add(Fraction(num, den))
    pairs = [(p, Fraction(rng.randint(1, 12), rng.randint(1, 8)))
             for p in sorted(positions)]
    return AtomicMeasure(pairs)


def branch_measure(w, first_index, window, domain):
    """The certificate measure of a completed branch whose deepest 2K
    entries are the window w, as `completion._branch_measures` builds it:
    `completion._certificate_measure` of the minimal measure of w."""
    return completion._certificate_measure(
        w, principal._minimal_roots(w, domain), lambda: principal._minimal(w, domain),
        lambda: principal._atom_poly(w, domain), first_index, window)


@pytest.fixture
def rng():
    return random.Random(20260809)


@pytest.fixture(autouse=True)
def no_held_windows():
    """Every test starts with no exact window held by `_Window.of`, so its
    first call on a window is a cold one whatever ran before it."""
    positivity._held = ()
