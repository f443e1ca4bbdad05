"""Golden artifact digests: the artifacts of a fixed config grid, by sha256.

`golden.json` maps each `__version__` to {config name: {artifact: sha256}}.
A change that keeps the version must keep every digest; a change that moves
artifacts by design bumps the version and adds its entry, keeping the old
ones as history.  To add the entry of a new version, run from the repo root

    PYTHONPATH=src python tests/test_golden.py

which refuses to overwrite an entry that exists.

The learn and agnostic configs run under uniform D at n=4 with tau = 1/16
(so the grid adversary's step 2*tau is dyadic too); their floats are printed
at 12 significant digits.  Two learn configs run at n=12 under random D, where
every weight and correlation is a full-precision float, on the class
transforms of parities and conjunctions.
"""

import hashlib
import json
import sys
from pathlib import Path

from sqlab import __version__
from sqlab.errors import InvariantBreachError
from sqlab.harness import make_config, run_config

GOLDEN = Path(__file__).with_name("golden.json")

# a file: class over n=4: six +-1 functions, two of them equal
CLASS_FILE = """\
# six functions on 4 variables
1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1
1 -1 1 -1 1 -1 1 -1 1 -1 1 -1 1 -1 1 -1
-1 -1 1 1 -1 -1 1 1 -1 -1 1 1 -1 -1 1 1
1 1 1 1 -1 -1 -1 -1 1 1 1 1 -1 -1 -1 -1
1 -1 -1 1 1 -1 -1 1 -1 1 1 -1 -1 1 1 -1
1 -1 1 -1 1 -1 1 -1 1 -1 1 -1 1 -1 1 -1
"""

_LEARN = dict(command="learn", n=4, tau=0.0625, seeds="0..7")
_AGNOSTIC = dict(command="agnostic", n=4, tau=0.0625, seeds="0..7")
_DIM = dict(command="dim", n=4, seeds="0..7")

GRID = {
    **{f"learn-{o.split(':')[0]}": dict(_LEARN, oracle=o)
       for o in ("exact", "grid_adversary", "noisy", "empirical:300")},
    **{f"agnostic-{o.split(':')[0]}": dict(_AGNOSTIC, oracle=o)
       for o in ("exact", "grid_adversary", "noisy", "empirical:300")},
    **{f"dim-{c}-{d}": dict(_DIM, **{"class": c, "dist": d})
       for c in ("parities", "conjunctions", "file") for d in ("uniform", "random")},
    "evolve": dict(command="evolve", n=3, epsilon=0.4, seeds="0,1"),
    **{f"learn-{c}-12-random": dict(command="learn", n=12, tau=0.02, dist="random",
                                    seeds="0..5", **{"class": c})
       for c in ("parities", "conjunctions")},
}
LIAR = dict(_LEARN, oracle="liar")


def digests(class_path):
    """{config name: {artifact name: sha256}} of the grid at this version; the
    liar run's entry is the digest of its InvariantBreachError message."""
    out = {}
    for name, data in GRID.items():
        if data.get("class") == "file":
            data = dict(data, **{"class": f"file:{class_path}"})
        artifacts, _ = run_config(make_config(data))
        out[name] = {a: hashlib.sha256(blob).hexdigest() for a, blob in artifacts.items()}
    try:
        run_config(make_config(LIAR))
    except InvariantBreachError as e:
        out["learn-liar"] = {"error": hashlib.sha256(str(e).encode()).hexdigest()}
    return out


def test_artifacts_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert __version__ in golden, f"no golden digests for version {__version__}"
    path = tmp_path / "class.txt"
    path.write_text(CLASS_FILE)
    got, want = digests(path), golden[__version__]
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    import tempfile

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if __version__ in golden:
        sys.exit(f"{GOLDEN} already holds version {__version__}; bump the version first")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "class.txt"
        path.write_text(CLASS_FILE)
        golden[__version__] = digests(path)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote the digests of version {__version__} to {GOLDEN}")
