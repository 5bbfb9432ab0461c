"""The controller protocol shared by every recovery strategy.

A controller's life cycle, mirroring Section 4's description of the decision
loop: ``reset()`` at fault-detection time, then alternating ``observe()``
(Bayesian belief update with the latest monitor outputs, Eq. 4) and
``decide()`` (choose the next recovery action) until a decision with
``is_terminate`` set ends the episode.  The campaign driver in
:mod:`repro.sim` owns the loop; controllers only own belief tracking and
action selection, and they never see the true system state (except the
oracle, whose engine reads the hook provided for it).

Since the engine/session split (:mod:`repro.controllers.engine`) a
controller is a *thin adapter*: the shared, immutable-after-warmup policy
state lives in a :class:`~repro.controllers.engine.PolicyEngine` and the
per-episode mutable state in one live
:class:`~repro.controllers.engine.RecoverySession`, exposed as
:attr:`RecoveryController.session`.  Every method (``reset`` / ``observe``
/ ``decide`` / ``belief`` / ``stopwatch``) forwards to that session.  A new
strategy subclasses :class:`~repro.controllers.engine.PolicyEngine` and
hands an instance to ``RecoveryController(engine=...)`` (or to a small
adapter subclass, as every shipped controller does); the adapter inherits
the engine's name, monitor opt-out, preflight report and decision logic.
"""

from __future__ import annotations

import numpy as np

from repro.controllers.engine import (
    NO_ACTION,
    Decision,
    PolicyEngine,
    RecoverySession,
)
from repro.recovery.model import RecoveryModel
from repro.util.timing import Stopwatch

__all__ = [
    "NO_ACTION",
    "Decision",
    "RecoveryController",
]


class RecoveryController:
    """Thin adapter binding one :class:`PolicyEngine` to one live session."""

    #: Integer diagnostic counters that accumulate across a campaign's
    #: episodes (subclasses list attribute names here).  The campaign
    #: engine runs episodes on controller clones; it reads this to merge
    #: each chunk's counter deltas back into the caller's controller.
    CAMPAIGN_COUNTERS: tuple[str, ...] = ()

    def __init__(self, engine: PolicyEngine):
        """Args:
            engine: the :class:`PolicyEngine` to adapt; the adapter opens
                one live session against it.  Preflight analysis, when
                wanted, is the engine's constructor option.
        """
        self.engine = engine
        self.name = engine.name
        self.preflight_report = engine.preflight_report
        self.session: RecoverySession = engine.session()

    def refinement_state(self):
        """The mutable bound-vector set this controller refines, if any.

        The campaign engine merges the refinements its controller clones
        produce back into this object (see :mod:`repro.sim.parallel`).
        Forwards to the engine's :meth:`PolicyEngine.refinement_state`;
        ``None`` opts out of refinement merging.
        """
        return self.engine.refinement_state()

    # -- session pass-throughs ------------------------------------------------

    @property
    def model(self) -> RecoveryModel:
        """The engine's (shared) recovery model."""
        return self.engine.model

    @property
    def uses_monitors(self) -> bool:
        """Whether the campaign should feed monitor outputs (engine's flag)."""
        return self.engine.uses_monitors

    @property
    def stopwatch(self) -> Stopwatch:
        """The live session's decision stopwatch ("algorithm time")."""
        return self.session.stopwatch

    def reset(self, initial_belief: np.ndarray | None = None) -> None:
        """Start a new recovery episode (see :meth:`RecoverySession.reset`)."""
        self.session.reset(initial_belief)

    @property
    def belief(self) -> np.ndarray:
        """The controller's current belief state (copy)."""
        return self.session.belief

    @property
    def done(self) -> bool:
        """True once the controller has terminated the current episode."""
        return self.session.done

    def observe(self, action: int, observation: int) -> None:
        """Fold the monitor outputs after ``action`` into the belief (Eq. 4)."""
        self.session.observe(action, observation)

    def decide(self) -> Decision:
        """Choose the next action; timed for the "algorithm time" metric."""
        return self.session.decide()

    def sync_true_state(self, state: int) -> None:
        """Ground-truth hook (see :meth:`RecoverySession.sync_true_state`)."""
        self.session.sync_true_state(state)
