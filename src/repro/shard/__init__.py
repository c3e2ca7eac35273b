"""Sharded multi-process scatter-gather execution.

Splits the mseed corpus into N shards, each owned by a warm worker
process running a full lazy warehouse over its slice of the files.
A decomposable aggregate is split in the compiled plan
(:mod:`repro.shard.gather`): every worker compiles the same statement
and runs its partial aggregate over its shard, and the parent merges
the gathered partial states with its ordinary aggregate kernel under a
:class:`~repro.shard.gather.PShardGather` leaf.  Every other statement
runs the parent's own plan with only *extraction* scattered to the
owning shards (``LazyDataBinding.remote_extractor``).  Both paths
reproduce the single-process result bit for bit; `shards=1` bypasses
all of it.
"""

from repro.shard.executor import ShardedExtractor, ShardStats
from repro.shard.gather import PShardGather, ShardRouter
from repro.shard.partition import ShardMap, ShardRepositoryView

__all__ = [
    "PShardGather",
    "ShardMap",
    "ShardRepositoryView",
    "ShardRouter",
    "ShardStats",
    "ShardedExtractor",
]
