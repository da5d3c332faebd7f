"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and prints
it next to the published numbers.  The baseline ATM sweep is shared
across tables (the paper reuses its Table 1 ATM column as the baseline
of Tables 4, 6 and 7).
"""

import pytest

from repro.core.experiment import PAPER_SIZES  # noqa: F401  (re-export)
from repro.core.experiment import run_sweep as _run_sweep

#: Iterations per benchmark point (after warmup); the simulator is
#: deterministic so this is enough for stable means.  Kept equal to
#: ``ITER, WARM`` in ``repro.__main__`` so the benchmarks check the
#: numbers the CLI tables print.
ITERATIONS = 6
WARMUP = 2


@pytest.fixture(scope="session")
def atm_baseline():
    """size -> RoundTripResult for the stock kernel over ATM."""
    return run_sweep(network="atm")


def run_sweep(network="atm", config=None, sizes=None,
              iterations=ITERATIONS, warmup=WARMUP):
    """One full size sweep; returns size -> RoundTripResult."""
    return _run_sweep(network, config, sizes, iterations, warmup)
