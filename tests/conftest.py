import numpy as np
import pytest

from losem import (
    Disc,
    PhantomSpec,
    PixelGrid,
    RadonSystem,
    SinogramGrid,
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


def load_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix as written by ``save_matrix_csv``."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return np.asarray(rows, dtype=np.float64)


def cycle_errors(trace) -> np.ndarray:
    """Error at the end of cycle c = error before step c*n_blocks, for
    c = 0..n_cycles, ending with the final error of the ``IterationTrace``."""
    N = trace.n_blocks
    out = [trace.error_kl[c * N] for c in range(trace.n_cycles)]
    out.append(trace.final_error)
    return np.asarray(out)
