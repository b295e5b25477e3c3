import math

import pytest

from qdsim.errors import DomainError, NoCrossingError
from qdsim.rootfind import find_crossing


def test_find_crossing_root_and_refusals():
    # |g(t)| = 2 exp(-t/7) meets |omega| = 1 at t = 7 ln 2
    got = find_crossing(lambda t: 2.0 * math.exp(-t / 7.0) - 1.0, 0.0, 50.0, xtol=1e-6)
    assert got == pytest.approx(7.0 * math.log(2.0), abs=1e-5)
    with pytest.raises(NoCrossingError):
        find_crossing(lambda t: 0.5 - 1.0, 0.0, 50.0)
    for lo, hi in ((50.0, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            find_crossing(lambda t: t - 1.0, lo, hi)
    for xtol in (0.0, -1.0):
        with pytest.raises(DomainError):
            find_crossing(lambda t: t - 1.0, 0.0, 50.0, xtol=xtol)
