import numpy as np
import pytest

import siegelps as sp


def random_point(n: int, rng: np.random.Generator) -> sp.SiegelPoint:
    x = rng.uniform(-1.0, 1.0, size=(n, n))
    x = (x + x.T) / 2.0
    b = rng.standard_normal((n, n))
    y = b @ b.T + 0.2 * np.eye(n)
    return sp.SiegelPoint(x, y)


@pytest.fixture(scope="session")
def ball40() -> sp.EnumerationBall:
    """Genus-1 full-group ball reused by the series and pairing tests."""
    return sp.enumerate_ball(sp.CongruenceGroup(1, 1), 40.0)
