"""One Table 1 campaign in its own process, so its peak RSS is the program's.

Builds the EMN system and the bootstrapped controller ``--setups`` times
(set-up time is the median), then runs one serial zombie-fault campaign
with the last controller and prints a JSON summary as its last line.
After the campaign the controller's refined bound set is written to
``--bounds-out`` and reloaded with its R3xx certificates recomputed.

Each decision call is timed the way a caller waiting for it would time it:
``RecoverySession.decide`` is replaced by a wrapper that reads the clock
before and after.  With ``--spans-out`` the layer tracer is installed
instead and every span is written to that file when the campaign ends.

Usage::

    python perfbench/campaign_child.py --controller "bounded (depth 1)" \\
        --injections 1000 --seed 2006 --setups 3 --bounds-out PATH \\
        [--spans-out PATH]
"""

from __future__ import annotations

import argparse
import functools
import json
import time

from common import recertify, self_peak_rss_mb


def _time_decisions(latencies: list[float]) -> None:
    from repro.controllers.engine import RecoverySession

    original = RecoverySession.decide

    @functools.wraps(original)
    def timed(self):
        started = time.perf_counter()
        try:
            return original(self)
        finally:
            latencies.append(time.perf_counter() - started)

    RecoverySession.decide = timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--controller", required=True)
    parser.add_argument("--injections", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--bounds-out", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    latencies: list[float] = []
    if args.spans_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _time_decisions(latencies)

    from repro.experiments.table1 import make_controller
    from repro.io import save_bound_set
    from repro.sim.campaign import run_campaign
    from repro.sim.metrics import campaign_fingerprint
    from repro.systems.emn import MONITOR_DURATION, build_emn_system
    from repro.systems.faults import FaultKind

    setup_seconds = []
    for _ in range(args.setups):
        started = time.perf_counter()
        system = build_emn_system()
        controller = make_controller(args.controller, system)
        setup_seconds.append(time.perf_counter() - started)

    if tracer is not None:
        tracer.phase = "measure"
    latencies.clear()
    started = time.perf_counter()
    result = run_campaign(
        controller,
        fault_states=system.fault_states(FaultKind.ZOMBIE),
        injections=args.injections,
        seed=args.seed,
        monitor_tail=MONITOR_DURATION,
        parallel=None,
    )
    wall = time.perf_counter() - started
    peak_rss = self_peak_rss_mb()
    if tracer is not None:
        tracer.phase = "done"
        tracer.dump(args.spans_out)

    episodes = result.episodes
    save_bound_set(args.bounds_out, controller.bound_set)
    print(
        json.dumps(
            {
                "setup_s": setup_seconds,
                "wall_s": wall,
                "episodes": len(episodes),
                "decisions": sum(e.steps for e in episodes) + sum(e.terminated for e in episodes),
                "decide_s": latencies,
                "step_cap_hits": sum(not e.terminated for e in episodes),
                "recovered": sum(e.recovered for e in episodes),
                "fingerprint": campaign_fingerprint(episodes),
                "bound_set_size": int(controller.bound_set.vectors.shape[0]),
                "recertified": recertify(args.bounds_out, system.model),
                "peak_rss_mb": peak_rss,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
