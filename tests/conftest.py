import math

import numpy as np
import pytest

from losem import (
    Disc,
    PhantomSpec,
    PixelGrid,
    RadonSystem,
    SinogramGrid,
    em_step,
    kl_distance,
    render_phantom,
)


@pytest.fixture(scope="session")
def two_disc_phantom():
    return PhantomSpec((Disc(0.0, 0.0, 0.4, 1.0), Disc(0.45, 0.3, 0.18, 2.0)))


@pytest.fixture(scope="session")
def small_setup(two_disc_phantom):
    """32x32 four-block setup with exact ground truth, for fast solver tests."""
    grid = PixelGrid(32, 2.0 / 32.0)
    sino = SinogramGrid(n_blocks=4, n_phi=8, n_r=32)
    system = RadonSystem(grid, sino, lam=0.01, K=1)
    x_star = render_phantom(two_disc_phantom, grid)
    return system, x_star


class IdentitySystem:
    """Two-cell system whose forward map is the identity.

    The EM update then multiplies the iterate by y/x, which solves the
    problem in a single step.  Used to pin solver arithmetic exactly.
    """

    def __init__(self):
        self.n_blocks = 1
        self.node_weights = np.array([0.5, 0.5])
        self.block_weight = np.array([0.5, 0.5])

    def forward(self, x, j):
        return x

    def adjoint(self, y, j):
        return y


@pytest.fixture
def identity_system():
    return IdentitySystem()


class MatrixSystem:
    """Blocks of nonnegative dense matrices on a few nodes, with the exact
    adjoint of the quadrature-weighted pairings.

    Block j maps node values x to ``matrices[j] @ x``, and its adjoint is
    A_j* y = A_j^T (b * y) / w for the node weights w and sample weights b,
    so <A_j x, y>_b = <x, A_j* y>_w.  Each column k of A_j is scaled so that
    sum_i b_i A_j[i, k] = w_k: A_j* then maps ones to ones (up to rounding),
    and A_j keeps the mass of a density, as the Radon system's blocks do.
    """

    def __init__(self, matrices, node_weights, block_weight):
        self.matrices = [A * (node_weights / (block_weight @ A)) for A in matrices]
        self.n_blocks = len(self.matrices)
        self.node_weights = node_weights
        self.block_weight = block_weight

    def forward(self, x, j):
        return self.matrices[j] @ x

    def adjoint(self, y, j):
        return self.matrices[j].T @ (self.block_weight * y) / self.node_weights


def load_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix as written by ``save_matrix_csv``."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return np.asarray(rows, dtype=np.float64)


def assert_density(x, grid) -> None:
    """A density on ``grid``: nonnegative, zero off the disc domain,
    read-only, and of unit quadrature mass within 1e-9."""
    assert x.shape == grid.shape
    assert np.all(x >= 0.0)
    assert np.all(x[~grid.mask] == 0.0)
    assert not x.flags.writeable
    assert abs(float(np.sum(grid.node_weights * x)) - 1.0) <= 1e-9


def assert_unit_blocks(blocks, sample_weight) -> None:
    """Data blocks that are nonnegative, each of unit mass within 1e-9
    under the uniform ``sample_weight``."""
    for b in blocks:
        assert np.all(b >= 0.0)
        assert abs(float(np.sum(b) * sample_weight) - 1.0) <= 1e-9


def trace_errors(trace) -> np.ndarray:
    """Ground-truth errors per step of an ``IterationTrace`` plus the final
    iterate's error."""
    return np.asarray(trace.error_kl + [trace.final_error])


def cycle_errors(trace) -> np.ndarray:
    """Error at the end of cycle c = error before step c*n_blocks, for
    c = 0..n_cycles, ending with the final error of the ``IterationTrace``."""
    N = trace.n_blocks
    out = [trace.error_kl[c * N] for c in range(trace.n_cycles)]
    out.append(trace.final_error)
    return np.asarray(out)


def replay_residuals(x0, system, data, trace):
    """Block residuals before and after each step of a run from ``x0`` that
    performed every step, replayed with ``em_step``.  Each residual before
    a step must equal the trace's bit for bit, so the replay retraces the
    run's iterates.  Returns (before, after) as arrays."""
    assert all(trace.performed)
    w = system.block_weight
    x = np.array(x0, dtype=np.float64)
    before, after = [], []
    for j, recorded in zip(trace.block, trace.residual):
        before.append(kl_distance(data[j], system.forward(x, j), w))
        assert before[-1] == recorded
        x = em_step(x, system, j, data[j])
        after.append(kl_distance(data[j], system.forward(x, j), w))
    return np.asarray(before), np.asarray(after)


def kl_l1_bound_check(v, u, weights=None, slack: float = 1e-12) -> bool:
    """Check the L1 bound ||v - u||_1^2 <= (2/3 ||v||_1 + 4/3 ||u||_1) * kl
    of the weighted KL distance (``weights`` default 1)."""
    d = kl_distance(v, u, weights)
    if math.isinf(d):
        return True
    w = 1.0 if weights is None else np.asarray(weights, dtype=np.float64)
    v, u = np.asarray(v, dtype=np.float64), np.asarray(u, dtype=np.float64)
    lhs = float(np.sum(w * np.abs(v - u))) ** 2
    rhs = (2.0 / 3.0 * float(np.sum(w * v)) + 4.0 / 3.0 * float(np.sum(w * u))) * d
    return lhs <= rhs + slack
