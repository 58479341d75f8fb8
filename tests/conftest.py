import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rng_factory():
    def make(seed):
        return np.random.default_rng(seed)

    return make


def _chi_square(counts, probs):
    """Pearson statistic of observed counts against cell probabilities, with
    its degrees of freedom (cells of positive probability, minus one).

    Cells of zero probability must be empty.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    live = probs > 1e-12
    assert counts[~live].sum() == 0, "draws in cells of zero probability"
    expected = counts.sum() * probs[live] / probs[live].sum()
    return float(((counts[live] - expected) ** 2 / expected).sum()), int(live.sum()) - 1


@pytest.fixture
def chi_square():
    """Asserts that counts fit cell probabilities: the statistic must stay
    below df + 6 sqrt(2 df), a chi-square tail of about 1e-5 or less."""
    def check(counts, probs):
        stat, df = _chi_square(counts, probs)
        assert stat < df + 6 * np.sqrt(2 * df), f"chi-square {stat:.1f} on {df} df"
        return stat, df

    return check
