"""Recovery controllers (Sections 4 and 5).

The decision logic lives in :class:`~repro.controllers.engine.PolicyEngine`
subclasses — shared, immutable-after-warmup state (bound sets, Q-tables,
fixing-action maps) that spawns lightweight per-episode
:class:`~repro.controllers.engine.RecoverySession` objects.  The
``*Controller`` classes are thin campaign-facing adapters binding one
engine to one live session; a new strategy is a ``PolicyEngine``
subclass handed to ``RecoveryController(engine=...)``.

* :mod:`repro.controllers.bounded` — the paper's controller: finite-depth
  lookahead with the piecewise-linear lower bound at the leaves, online
  refinement, and termination through the terminate action ``a_T``.
* :mod:`repro.controllers.heuristic` — the SRDS'05 heuristic controller used
  as the main baseline (heuristic leaf value, probability-threshold
  termination).
* :mod:`repro.controllers.most_likely` — Bayes diagnosis plus the cheapest
  action that fixes the most likely fault.
* :mod:`repro.controllers.oracle` — the unattainable ideal: knows the fault,
  fixes it in one action.
* :mod:`repro.controllers.random_controller` — uniform random recovery
  actions; the policy whose value *is* the RA-Bound, kept as a sanity
  baseline.
* :mod:`repro.controllers.branch_and_bound` — the paper's future work:
  the bounded lookahead with sawtooth upper-bound pruning and optional
  certified termination.
* :mod:`repro.controllers.bootstrap` — the offline bounds-improvement phase
  of Section 4.1 (Random and Average variants) that produces the data for
  Figures 5(a) and 5(b).
"""

from repro.controllers.base import NO_ACTION, Decision, RecoveryController
from repro.controllers.bootstrap import BootstrapResult, bootstrap_bounds
from repro.controllers.bounded import BoundedController, BoundedPolicyEngine
from repro.controllers.branch_and_bound import (
    BranchAndBoundController,
    BranchAndBoundPolicyEngine,
)
from repro.controllers.engine import PolicyEngine, RecoverySession
from repro.controllers.heuristic import (
    HeuristicController,
    HeuristicLeaf,
    HeuristicPolicyEngine,
)
from repro.controllers.most_likely import (
    MostLikelyController,
    MostLikelyPolicyEngine,
)
from repro.controllers.oracle import OracleController, OraclePolicyEngine
from repro.controllers.qmdp import QMDPController, QMDPPolicyEngine
from repro.controllers.random_controller import (
    RandomController,
    RandomPolicyEngine,
)

__all__ = [
    "NO_ACTION",
    "BootstrapResult",
    "BoundedController",
    "BoundedPolicyEngine",
    "BranchAndBoundController",
    "BranchAndBoundPolicyEngine",
    "Decision",
    "HeuristicController",
    "HeuristicLeaf",
    "HeuristicPolicyEngine",
    "MostLikelyController",
    "MostLikelyPolicyEngine",
    "OracleController",
    "OraclePolicyEngine",
    "PolicyEngine",
    "QMDPController",
    "QMDPPolicyEngine",
    "RandomController",
    "RandomPolicyEngine",
    "RecoveryController",
    "RecoverySession",
    "bootstrap_bounds",
]
