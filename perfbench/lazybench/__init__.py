"""Answer-checked benchmark for the lazy seismic warehouse.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a source checkout.
See ``perfbench/RATIONALE.md`` for why each workload and metric exists.
"""
