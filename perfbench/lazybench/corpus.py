"""Deterministic synthetic corpora, generated once per (spec, corpus seed).

The repository synthesizer seeds each waveform from Python's built-in
``hash()`` of a tuple of strings, which is salted per process.  The same
seed therefore writes different bytes in two processes unless
``PYTHONHASHSEED`` is pinned (a known defect of the synthesizer, listed
in RATIONALE.md).  Every corpus is therefore written by child processes
whose ``PYTHONHASHSEED`` is derived from the workload seed, and the
result is cached under ``.perfbench_cache/`` keyed by the spec and the
seed, outside every timed region.

Run as ``python3 -m lazybench.corpus build ...`` this module is the child: it builds the files of the
given stations into a directory and prints their counts as JSON.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from lazybench import env

# Workload corpora.  Each is a set of RepositorySpec fields plus the
# station subset (None = the full default inventory of nine stations).
SPECS: dict[str, dict] = {
    # 9 stations x 3 BH channels x 2 ten-minute files at 40 Hz:
    # 54 files, 1.3 M samples, ~3.2 k records, ~1.6 MB.
    "explore": {"files_per_stream": 2, "file_span_minutes": 10,
                "start_hour": 22, "stations": None},
    # Six times explore's records: 2 one-hour files per stream.
    "archive": {"files_per_stream": 2, "file_span_minutes": 60,
                "start_hour": 20, "stations": None},
    "serve": {"files_per_stream": 2, "file_span_minutes": 10,
              "start_hour": 22, "stations": None},
    # The staged future of three live streams; the ingest workload lands
    # these files record by record while it queries.
    "ingest": {"files_per_stream": 12, "file_span_minutes": 10,
               "start_hour": 20, "stations": ["HGN", "ISK", "APE"],
               "channels": ["BHZ"]},
}

BUILD_PROCESSES = 2
# Workload seeds map onto this many corpora per workload.  Waveform
# values barely move the program's costs, while generating the largest
# corpus takes longer than a run measures; so seeds share corpora and
# differ in their query streams, which every seed draws afresh.
CORPUS_VARIANTS = 4


def corpus_seed(seed: int) -> int:
    """The corpus a workload seed runs on."""
    return seed % CORPUS_VARIANTS


@dataclass(frozen=True)
class Corpus:
    """A generated corpus on disk plus its provenance."""

    name: str
    seed: int
    root: Path
    sha256: str
    files: int
    records: int
    samples: int
    bytes: int
    hash_seed: int

    def provenance(self) -> dict:
        return {"corpus": self.name, "seed": self.seed,
                "sha256": self.sha256, "files": self.files,
                "records": self.records, "samples": self.samples,
                "bytes": self.bytes, "pythonhashseed": self.hash_seed}


def hash_seed_for(name: str, seed: int) -> int:
    """The ``PYTHONHASHSEED`` a corpus is generated under."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def spec_key(spec: dict) -> str:
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*.mseed") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _station_groups(stations: list[str], parts: int) -> list[list[str]]:
    groups = [stations[i::parts] for i in range(parts)]
    return [g for g in groups if g]


def generate(name: str, seed: int, cache_dir: Path,
             spec: dict | None = None) -> Corpus:
    """Return the cached corpus for ``(name, seed)``, building it first
    if needed.  Building runs in child processes under a pinned
    ``PYTHONHASHSEED``.  ``spec`` defaults to ``SPECS[name]``."""
    from repro.mseed.inventory import DEFAULT_INVENTORY

    spec = SPECS[name] if spec is None else spec
    target = cache_dir / "corpus" / f"{name}-{spec_key(spec)}-s{seed}"
    meta_path = target / "corpus.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        return Corpus(name=name, seed=seed, root=target / "repo", **meta)
    if target.exists():
        shutil.rmtree(target)
    repo = target / "repo"
    repo.mkdir(parents=True)
    hash_seed = hash_seed_for(name, seed)
    stations = spec["stations"] or [s.code for s in DEFAULT_INVENTORY]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "lazybench.corpus", "build",
             str(repo), json.dumps(spec), str(seed), ",".join(group)],
            env=env.child_env(hash_seed), stdout=subprocess.PIPE, text=True)
        for group in _station_groups(stations, BUILD_PROCESSES)
    ]
    counts = {"files": 0, "records": 0, "samples": 0}
    failed = False
    for child in children:
        out, _ = child.communicate()
        if child.returncode != 0:
            failed = True
            continue
        part = json.loads(out.strip().splitlines()[-1])
        for key in counts:
            counts[key] += part[key]
    if failed:
        raise RuntimeError(f"corpus generation for {name} seed {seed} failed")
    meta = {
        "sha256": tree_digest(repo),
        "bytes": sum(p.stat().st_size for p in repo.rglob("*.mseed")),
        "hash_seed": hash_seed,
        **counts,
    }
    tmp = target / "corpus.json.tmp"
    tmp.write_text(json.dumps(meta))
    tmp.replace(meta_path)
    return Corpus(name=name, seed=seed, root=repo, **meta)


def _build(repo: str, spec: dict, seed: int, stations: list[str]) -> dict:
    """Child side: write the files of ``stations`` into ``repo``."""
    from repro.mseed.inventory import DEFAULT_INVENTORY
    from repro.mseed.synthesize import RepositorySpec, build_repository

    fields = {k: v for k, v in spec.items()
              if k not in ("stations", "channels")}
    if "channels" in spec:
        fields["channel_codes"] = tuple(spec["channels"])
    chosen = tuple(s for s in DEFAULT_INVENTORY if s.code in stations)
    manifest = build_repository(
        repo, RepositorySpec(stations=chosen, **fields), seed=seed)
    return {"files": len(manifest.entries),
            "records": sum(e.n_records for e in manifest.entries),
            "samples": manifest.total_samples}


if __name__ == "__main__":
    if len(sys.argv) != 6 or sys.argv[1] != "build":
        sys.exit("usage: python3 -m lazybench.corpus build <repo> <spec-json> <seed> <stations>")
    print(json.dumps(_build(sys.argv[2], json.loads(sys.argv[3]),
                            int(sys.argv[4]),
                            sys.argv[5].split(","))))
