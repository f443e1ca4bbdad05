"""Command-line entry point: learn | evolve | dim | agnostic.

Configuration comes from an optional key = value file (--config) overridden
by flags.  Exit codes: 0 ok, 1 usage error, 2 invariant breach (e.g. an
oracle whose answers are inconsistent with every target), 3 I/O error.
"""

import sys

import click

from . import __version__, harness
from .errors import InvariantBreachError, LabError, UsageError

# Flags a command reads nothing from, with the reason; naming one is a usage
# error rather than a silent no-op.  (A manifest's config snapshot carries
# every key, so harness.make_config accepts them.)
UNUSED = {
    "evolve": {
        "class": "the target is a random disjunction of the seed",
        "tau": "selection uses the tolerance t derived from --epsilon",
        "oracle": "fitness is estimated from the evolver's own samples",
    },
    "dim": {
        "tau": "the dimension is computed exactly from the class and D",
        "oracle": "no query is asked; the Gram matrix is computed exactly",
        "epsilon": "the dimension has no accuracy parameter",
    },
    "learn": {
        "epsilon": "the learner halts when no pool member moves by 3 * --tau",
    },
    "agnostic": {
        "epsilon": "the pool learner's guarantee is stated in --tau alone",
    },
}


def common_options(fn):
    for opt in (
        click.option("--config", "config", default=None,
                     help="key = value config file; flags win"),
        click.option("--format", "fmt", default=None,
                     type=click.Choice(["csv", "json"]), help="artifact format"),
        click.option("--out", default=None, help="output directory"),
        click.option("--seeds", default=None,
                     help="comma list (0,1,2) or inclusive range (0..99)"),
        click.option("--oracle", default=None,
                     help="exact | grid_adversary | noisy | empirical:<s> | liar"),
        click.option("--dist", default=None, help="uniform | random[:seed] | file:<path>"),
        click.option("--class", "cclass", default=None,
                     help="parities | conjunctions | disjunctions | file:<path>"),
        click.option("--tau", type=float, default=None, help="oracle tolerance"),
        click.option("--epsilon", type=float, default=None, help="target accuracy"),
        click.option("--n", type=int, default=None, help="number of variables"),
    ):
        fn = opt(fn)
    return fn


def _execute(command, config, n, epsilon, tau, cclass, dist, oracle, seeds,
             out, fmt):
    try:
        data = harness.parse_config_file(config) if config else {}
        overrides = {
            "n": n, "epsilon": epsilon, "tau": tau, "class": cclass,
            "dist": dist, "oracle": oracle, "seeds": seeds, "out": out,
            "format": fmt,
        }
        data.update({k: v for k, v in overrides.items() if v is not None})
        for key, why in UNUSED.get(command, {}).items():
            if key in data:
                raise UsageError(f"{command} does not use --{key}: {why}")
        data["command"] = command
        cfg = harness.make_config(data)
        paths, summaries = harness.execute(cfg)
    except InvariantBreachError as e:
        click.echo(f"invariant breach: {e}", err=True)
        sys.exit(2)
    except LabError as e:
        click.echo(f"usage error: {e}", err=True)
        sys.exit(1)
    except OSError as e:
        click.echo(f"io error: {e}", err=True)
        sys.exit(3)
    for i, s in enumerate(summaries):
        click.echo(f"run {i}: " + " ".join(
            f"{k}={harness.format_value(v)}" for k, v in s.items()))
    click.echo(f"wrote {len(paths)} files to {cfg.out}")


@click.group()
@click.version_option(version=__version__, prog_name="sqlab")
def main():
    """Statistical-query learning and evolvability experiments on explicit
    truth tables."""


@main.command()
@common_options
def learn(**kw):
    """Projected iterative learner against a class pool."""
    _execute("learn", **kw)


@main.command()
@common_options
def evolve(**kw):
    """Disjunction evolver under tolerance-t selection."""
    _execute("evolve", **kw)


@main.command()
@common_options
def dim(**kw):
    """Pairwise-correlation dimension of a class."""
    _execute("dim", **kw)


@main.command()
@common_options
def agnostic(**kw):
    """Weak agnostic pool learner against a random label model."""
    _execute("agnostic", **kw)


if __name__ == "__main__":
    main()
