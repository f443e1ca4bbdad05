"""sqlab: statistical-query learning and evolvability on explicit truth tables.

Everything operates on functions given as length-2^n value tables over the
Boolean cube, with distribution-weighted inner products as the core geometry.
Modules:

* ``fnspace``    -- domains, Boolean/real functions, distributions, and
                    ``FnSet``, the one function-set type (classes among them);
* ``oracles``    -- the statistical-query oracle for a realizable or agnostic
                    source (exact / adversarial / noisy / sampled / liar) and
                    the correlational decomposition;
* ``sqcore``     -- distinguishing-set extraction, the projected iterative
                    learner, baselines, the weak agnostic learner;
* ``dimensions`` -- pairwise-correlation dimensions, covers, shifted sets,
                    the parity witness;
* ``evolve``     -- fitness, tolerance-t selection, mutators, evolution runs;
* ``harness``    -- config, seeded batch runs, deterministic exports.
"""

__version__ = "0.3.0"

from .fnspace import (  # noqa: E402,F401
    BoolFn,
    Dist,
    Domain,
    FnSet,
    RealFn,
    conjunction_class,
    disagreement,
    disjunction_class,
    dist_random,
    dist_uniform,
    inner_product,
    l1_distance,
    make_conjunction,
    make_disjunction,
    make_parity,
    norm,
    parity_class,
    project_unit,
    sign_of,
)
from .oracles import SQOracle, decompose  # noqa: F401
from .sqcore import (  # noqa: F401
    ExhaustiveCSQ,
    LearnerTrace,
    build_gpsi,
    class_pool_generator,
    gpsi_generator,
    projected_learner,
    weak_agnostic_learner,
)
from .dimensions import (  # noqa: F401
    DimReport,
    parity_witness,
    shifted_set,
    sq_dim,
    sq_sdim_estimate,
    sqd_lower_scaling,
    sqd_upper,
)
from .evolve import (  # noqa: F401
    LINEAR,
    QUADRATIC,
    EvolutionTrace,
    Loss,
    NeighborhoodMutator,
    SelNBParams,
    disjunction_lsq_params,
    disjunction_mutator,
    disjunction_params,
    empirical_lperf,
    evolve_lsq_params,
    evolve_run,
    evolve_streams,
    generation_draws,
    lperf,
    selnb_step,
    sq_neighborhood,
)
from .rng import make_rng  # noqa: F401
