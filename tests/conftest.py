import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from reluhom import lp
from reluhom.network import NetworkSpec

# Property tests draw the same examples on every run and are not timed, so
# tier-1 stays reproducible and does not flake on a slow or busy machine.
settings.register_profile(
    "reluhom", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("reluhom")


def pytest_terminal_summary(terminalreporter):
    """One line per acceptance criterion, after the test run."""
    try:
        import test_acceptance
    except ImportError:  # pragma: no cover
        return
    if not test_acceptance.RESULTS and not terminalreporter.stats.get("failed"):
        return
    ran = {
        num
        for num in range(1, 12)
        if any(
            f"criterion_{num}_" in rep.nodeid
            for key in ("passed", "failed")
            for rep in terminalreporter.stats.get(key, [])
        )
    }
    if not ran:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ran):
        if num in test_acceptance.RESULTS:
            terminalreporter.write_line(
                f"[criterion {num:2d}] PASS — {test_acceptance.RESULTS[num]}"
            )
        else:
            terminalreporter.write_line(f"[criterion {num:2d}] FAIL", red=True)


def random_net(m, hidden_sizes, seed, out_dim=1):
    """Gaussian-weight ReLU net with the given hidden layer widths."""
    rng = np.random.default_rng(seed)
    sizes = [m] + list(hidden_sizes) + [out_dim]
    weights = []
    biases = []
    for a, b in zip(sizes, sizes[1:]):
        weights.append(rng.standard_normal((b, a)))
        biases.append(rng.standard_normal(b))
    return NetworkSpec(tuple(weights), tuple(biases), m)


def random_hollow_matrix(n, rng, integer=True, low=1, high=8):
    """Random hollow symmetric non-negative matrix."""
    if integer:
        vals = rng.integers(low, high, size=(n, n)).astype(float)
    else:
        vals = rng.uniform(low, high, size=(n, n))
    D = np.triu(vals, 1)
    return D + D.T


@pytest.fixture
def net_2331():
    return random_net(2, [3, 3], seed=11)


@pytest.fixture
def net_221():
    # fixed integer weights; forward(x=[1,1]) expands to 8.5 by hand
    W1 = np.array([[1.0, 2.0], [3.0, -1.0]])
    b1 = np.array([1.0, -2.0])
    W2 = np.array([[2.0, -3.0]])
    b2 = np.array([0.5])
    return NetworkSpec((W1, W2), (b1, b2), 2)


@pytest.fixture
def lp_counter(monkeypatch):
    """Counts the LPs solved, the redundancy tests among them and the simplex
    pivots, each LP and pivot of a batch on its own, and records the
    smallest right-hand side each LP's simplex starts from."""
    counts = SimpleNamespace(solves=0, redundancy=0, pivots=0, min_rhs=[])
    solve_leq, redundant_rows, pivot = lp._solve_leq, lp.redundant_rows, lp._pivot

    def counted_solve_leq(gather, count, m, n):
        counts.solves += count

        def recorded(idx):
            obj, A, b = gather(idx)
            counts.min_rhs.extend(np.min(b, axis=1, initial=np.inf).tolist())
            return obj, A, b

        return solve_leq(recorded, count, m, n)

    def counted_redundant_rows(A, b, rest, rows, *args, **kwargs):
        counts.redundancy += len(rows)   # one LP each, counted by counted_solve_leq too
        return redundant_rows(A, b, rest, rows, *args, **kwargs)

    def counted_pivot(T, basis, labels, rows, cols):
        counts.pivots += len(rows)
        return pivot(T, basis, labels, rows, cols)

    monkeypatch.setattr(lp, "_solve_leq", counted_solve_leq)
    monkeypatch.setattr(lp, "redundant_rows", counted_redundant_rows)
    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    return counts
