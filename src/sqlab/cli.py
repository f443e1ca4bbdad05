"""Command-line entry point: learn | evolve | dim | agnostic.

Every config key of `harness.ExperimentConfig` (but `command`) is a --flag
and a key of the optional key = value file given by --config; flags win over
the file.  A file may name `command` only as the subcommand run, and a key
only once.  A key that the command does not read, named by a flag or by the
file, is a usage error.  Exit codes: 0 ok, 1 usage error (click's own too:
an unknown flag or command, a missing value), 2 invariant breach (e.g. an
oracle whose answers are inconsistent with every target), 3 I/O error.
"""

import sys

import click

from . import __version__, harness
from .errors import InvariantBreachError, LabError, UsageError


def common_options(fn):
    for key, f in reversed(harness.KEYS.items()):
        if key != "command":
            readers = f.metadata["readers"]
            only = "" if readers == harness.COMMANDS else f" ({', '.join(readers)} only)"
            fn = click.option(f"--{key}", default=None, help=f.metadata["help"] + only)(fn)
    return click.option("--config", default=None, help="key = value config file; flags win")(fn)


def _execute(command, config, **flags):
    try:
        data = harness.parse_config_file(config) if config else {}
        if data.get("command", command) != command:
            raise UsageError(f"config file {config} says command = {data['command']}, "
                             f"but the subcommand is {command}")
        data.update({k: v for k, v in flags.items() if v is not None})
        data["command"] = command
        cfg = harness.make_config(data)
        for key in data:
            readers = harness.KEYS[key].metadata["readers"]
            if command not in readers:
                raise UsageError(f"{command} does not read --{key}; "
                                 f"it is read by {', '.join(readers)}")
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


class _Main(click.Group):
    """A group whose usage errors exit 1, not click's 2, which is the exit
    code of an invariant breach here."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.UsageError as e:
            e.show()
            sys.exit(1)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_Main)
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
