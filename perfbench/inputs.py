"""Seeded inputs for the serve workloads: model archives and fault scripts.

The program only ever sees what this module generates: a recovery-model
archive, and per session an injected fault whose monitor outputs come from
a seeded :class:`~repro.sim.environment.RecoveryEnvironment` (the simulated
system the recovery agent is attached to).  Every stream injects the same
balanced mix of fault kinds and tiers, and every session samples monitor outputs
from its own ``SeedSequence([seed, stream, session])``, so the same seed
gives the same inputs however the streams interleave.

Run as a script it writes the archive and a one-step fault script for each
stream, which keeps a large model out of the load generator's memory::

    python perfbench/inputs.py --replicas 50000 --seed 2006 \\
        --sessions 50 --archive model.npz --script sessions.json
"""

from __future__ import annotations

import argparse
import json

import numpy as np

#: Connections of the load generator, one stream of sessions each.
STREAMS = 2


def tiered_system(replicas_per_tier: int):
    """The sparse three-tier system with ``replicas_per_tier`` replicas each."""
    from repro.systems.tiered import build_tiered_system

    return build_tiered_system(replicas=(replicas_per_tier,) * 3, backend="sparse")


def passive_action(model) -> int:
    return int(np.flatnonzero(model.passive_actions)[0])


def fault_schedule(system, seed: int, stream: int, sessions: int) -> list[int]:
    """The injected fault of each session of a stream.

    Sessions alternate between zombie and crash faults, and within each kind
    draw one fault from each of equal consecutive slices of its (tier-major)
    fault list, so every seed injects the same mix of kinds and tiers; the
    seed picks the fault within each slice and the order of the sessions.
    The kind matters most: a crash shows on its tier's ping monitor, a
    zombie on almost nothing, so their decisions start from very different
    beliefs.
    """
    kinds = (system.zombie_states(), system.crash_states())
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    picks = []
    for index in range(sessions):
        kind = index % len(kinds)
        faults = kinds[kind]
        drawn = len(range(kind, sessions, len(kinds)))
        slice_index = index // len(kinds)
        low = slice_index * faults.size // drawn
        high = max(low + 1, (slice_index + 1) * faults.size // drawn)
        picks.append(int(faults[rng.integers(low, high)]))
    return [int(fault) for fault in rng.permutation(picks)]


def environment(model, fault: int, seed: int, stream: int, session: int):
    """A fresh environment with ``fault`` injected and a per-session stream."""
    from repro.sim.environment import RecoveryEnvironment

    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, session]))
    env = RecoveryEnvironment(model, seed=rng)
    env.inject(fault)
    return env


def one_step_script(system, seed: int, stream: int, sessions: int) -> list[list[int]]:
    """``[fault, detection-time observation]`` for each session of a stream."""
    script = []
    for session, fault in enumerate(fault_schedule(system, seed, stream, sessions)):
        env = environment(system.model, fault, seed, stream, session)
        script.append([fault, int(env.initial_observation())])
    return script


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--archive", required=True)
    parser.add_argument("--script", required=True)
    args = parser.parse_args(argv)

    from repro.io import save_recovery_model

    system = tiered_system(args.replicas)
    model = system.model
    save_recovery_model(args.archive, model)
    document = {
        "n_actions": int(model.pomdp.n_actions),
        "passive_action": passive_action(model),
        "streams": [
            one_step_script(system, args.seed, stream, args.sessions)
            for stream in range(STREAMS)
        ],
    }
    with open(args.script, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
