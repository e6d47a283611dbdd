"""Shared test helpers."""

import math

import pytest
from scipy import stats


def _assert_same_law(label, a, b, names):
    """Two-sample KS p > 1e-3 and means within 3 sigma, column by column."""
    lines = []
    for k, name in enumerate(names):
        x, y = a[:, k], b[:, k]
        p = stats.ks_2samp(x, y).pvalue
        se = math.hypot(x.std(ddof=1) / math.sqrt(x.size),
                        y.std(ddof=1) / math.sqrt(y.size))
        lines.append(f"{name}: {x.mean():.4f} / {y.mean():.4f}, KS p {p:.3g}")
        assert p > 1e-3, (label, lines)
        assert abs(x.mean() - y.mean()) < 3.0 * se, (label, lines)
    print(label, "; ".join(lines))


@pytest.fixture
def same_law():
    """Asserts that two samples (rows of named columns) agree in law."""
    return _assert_same_law
