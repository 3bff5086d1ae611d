"""A fresh process that brings the program to ready, then exits.

``python3 perfbench/setup_probe.py ready`` imports the layers the
workloads use, loads the compiled kernel from its compile cache and
builds the S5 path statistics; the benchmark times it from spawn to exit
as ``setup_s``.  ``prepare`` does the same and also fills the disk
caches the service reads (S5/S6 path statistics and hotspot flow
profiles), compiling the kernel first if its cache is empty; it runs
once per benchmark run, untimed.  ``saturation`` prints, as one JSON
list, the model saturation rate at M=32, V=6 of each class serve_zipf
draws its rates from (run after ``prepare``, untimed).
"""

from __future__ import annotations

import json
import sys

from common import CACHE_DIR, use_program_env
from serve_zipf import CLASSES


def main(mode: str) -> int:
    use_program_env()
    if mode == "saturation":
        from repro.api.scenario import Scenario
        from repro.campaign import cache

        cache.configure(CACHE_DIR)
        print(json.dumps([
            Scenario(order=order, message_length=32, total_vcs=6, workload=spatial)
            .saturation_rate()
            for order, spatial in CLASSES
        ]))
        return 0
    import repro.api.scenario  # noqa: F401  (facade, campaign, validation layers)
    import repro.experiments.figure1  # noqa: F401
    from repro.core.pathstats import cached_path_statistics
    from repro.simulation.ckernel import load_bundle

    if load_bundle() is None:
        print("setup_probe: the compiled kernel is unavailable", file=sys.stderr)
        return 1
    cached_path_statistics(5)
    if mode == "prepare":
        from repro.campaign import cache
        from repro.workloads.flows import cached_flow_profile

        cache.configure(CACHE_DIR)
        for order in (5, 6):
            cache.path_statistics("star", order)
            cached_flow_profile(order, "hotspot(fraction=0.1)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
