"""Where the benchmark finds the program and keeps its own files.

The benchmark runs from the root of a source checkout and imports the
warehouse from that checkout's ``src/`` — never from an installed copy —
so it measures exactly the code beside it.  Everything it writes stays
under two gitignored directories of the checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (e.g. it has no ``src/``)."""


BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".perfbench_cache"
OUT_DIR = ROOT / ".perfbench_out"


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and check that
    ``repro`` imports from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {SRC / 'repro'} "
                         f"is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"repro imported from {origin}, not from {SRC}")


def child_env(hash_seed: int | None = None) -> dict[str, str]:
    """Environment for a child process that imports the program (and
    the benchmark's own package)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env
