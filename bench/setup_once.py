"""Set up one workload in this fresh interpreter, between speed probes.

``run.py`` starts this script to time set-up: ``import repro``, device
construction, the native kernel and, for ``gateway_stream``, the warm
pool (:func:`workload.setup`).  It prints one JSON line: when set-up
was done (``time.monotonic``, which ``run.py`` shares on Linux), how
long the probes before it took, and the median probe time.

The probes run here, three before the imports and three after set-up,
because the host's slow spells belong to one CPU at a time.  Over 36
spawns, set-up time was uncorrelated with probes run in ``run.py``
(r = 0.04) and tracked these (r = 0.89); rescaled by them, its spread
fell from 29% to 11%.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from hostspeed import HostSpeed

#: Probes before and after set-up each.
PROBES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True,
                        help="directory for the gateway's on-disk cache")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    begin = time.monotonic()
    for _ in range(PROBES):
        speed.sample()
    probing_s = time.monotonic() - begin
    import workload  # noqa: PLC0415 — its imports are part of set-up

    runner = workload.setup(args.workload, 0, Path(args.work))[2]
    ready_at = time.monotonic()
    for _ in range(PROBES):
        speed.sample()
    if runner is not None:
        runner.close()
    print(json.dumps({
        "ready_at": ready_at,
        "probing_s": probing_s,
        "probe_s": statistics.median(speed.took),
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
