import numpy as np
import pytest

import bgft
from bgft import linalg


def random_digraph(n, seed, density=0.5, floor=0.05):
    """Random weighted digraph with no sinks.

    A small weight floor on every off-diagonal edge keeps the transition
    operator away from near-defective shift-like structure (very sparse rows
    produce eigenbases with cond(V) in the 1e8 range, which no fixed test
    tolerance survives).
    """
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) * (rng.random((n, n)) < density) + floor
    np.fill_diagonal(a, 0.0)
    return bgft.DirectedGraph(a)


def random_reversible_graph(n, seed):
    """Chain built from a random symmetric weight matrix (detailed balance
    holds with pi_i proportional to the weighted degree)."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, n))
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    return bgft.DirectedGraph(w)


def transient_chain():
    """Edges 0 -> 1 -> 2 -> 3 -> 1: node 0 is transient, so the stationary
    distribution of its chain has a zero entry."""
    a = np.zeros((4, 4))
    a[[0, 1, 2, 3], [1, 2, 3, 1]] = 1.0
    return bgft.DirectedGraph(a)


def birth_death_chain(n, r):
    """Path 0 - 1 - ... - n-1 stepping right with probability r and left with
    1 - r, held at the two ends: reversible, with pi_i proportional to
    (r / (1 - r))^i."""
    a = np.diag(np.full(n - 1, r), 1) + np.diag(np.full(n - 1, 1.0 - r), -1)
    a[0, 0], a[-1, -1] = 1.0 - r, r
    return bgft.DirectedGraph(a)


def dgeev_decomposition(m):
    """eig_general's dgeev result for m, whichever route eig_general takes:
    LAPACK's eig under the same conventions."""
    return linalg._dgeev(linalg.as_matrix(m))


def counted(monkeypatch, module, name, refuse=lambda *args: False):
    """Wrap module.name to count its calls, raising AssertionError on a call
    whose arguments refuse accepts; returns the list of call arguments."""
    fn, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        if refuse(*args):
            raise AssertionError(f"{name} called with refused arguments")
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="session")
def canonical_bases():
    """Decomposed operators for the three benchmark graphs at n=64."""
    out = {}
    for name, g in [
        ("undirected", bgft.undirected_cycle(64)),
        ("directed", bgft.directed_cycle(64)),
        ("perturbed", bgft.add_directed_chord(bgft.directed_cycle(64), 20, 0, 32)),
    ]:
        op = bgft.transition(g)
        out[name] = (op, bgft.decompose(op))
    return out


@pytest.fixture(scope="session")
def property_suite():
    """20 random digraphs at n in {8, 16, 32}, decomposed once."""
    cases = []
    for i in range(20):
        n = (8, 16, 32)[i % 3]
        op = bgft.transition(random_digraph(n, seed=100 + i))
        cases.append((op, bgft.decompose(op)))
    return cases
