"""Multiplicative EM-type iterations with block skipping for systems of
integral equations with nonnegative kernels, instantiated on circular-mean
(photoacoustic) tomography.

The package splits into:

  kl_core     grids, the weighted KL distance, serialization, error types
  operators   circular-mean block operators, smoothing, kernel shift, bounds
  solvers     full, cyclic and loping iterations, stopping
  experiment  phantoms, data simulation, Poisson noise, oracle stopping
  config/cli  config files and the ``losem`` command
"""

from .config import AssumptionError, ConfigError, RunConfig, load_config
from .experiment import (
    Disc,
    NoiseSpec,
    PhantomSpec,
    add_poisson_noise,
    consistent_data,
    oracle_stopped_osem,
    realized_deltas,
    reblock,
    render_phantom,
    simulate_clean_base,
    simulate_data,
)
from .kl_core import (
    PixelGrid,
    SinogramGrid,
    kl_distance,
    normalize_to_simplex,
    uniform_density,
)
from .operators import (
    EffectiveBounds,
    RadonBlockOperator,
    RadonSystem,
    SmoothingKernel,
    effective_bounds,
    smooth_radial,
)
from .solvers import (
    IterationTrace,
    SolverConfig,
    StopReport,
    em_step,
    loping_osem_run,
    osem_run,
    tau_schedule,
)

__version__ = "0.1.0"
