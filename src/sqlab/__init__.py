"""sqlab: statistical-query learning and evolvability on explicit truth tables.

Everything operates on functions given as length-2^n value tables over the
Boolean cube, with distribution-weighted inner products as the core geometry.
Names are imported from their modules (``from sqlab.fnspace import Domain``);
the package itself holds only ``__version__``.  Modules:

* ``fnspace``    -- domains, Boolean/real functions, distributions, and
                    ``FnSet``, the one function-set type (classes among them);
* ``oracles``    -- the statistical-query oracle for a realizable or agnostic
                    source (modes exact / grid_adversary / noisy / empirical /
                    liar) and the one check of a round of queries;
* ``sqcore``     -- distinguishing-set extraction, the projected iterative
                    learner, baselines, the weak agnostic learner;
* ``dimensions`` -- the weak (pairwise-correlation) SQ dimension;
* ``evolve``     -- fitness, tolerance-t selection, mutators, evolution runs;
* ``harness``    -- config, seeded batch runs, deterministic exports.
"""

__version__ = "0.3.3"
