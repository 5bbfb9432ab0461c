"""Branch-and-bound recovery controller (the paper's named future work).

The conclusion of the paper lists "generation of upper bounds in addition
to the lower bounds to facilitate branch and bound techniques" as an
extension.  :class:`BranchAndBoundPolicyEngine` implements it: at every
decision node of the finite-depth expansion it first scores each action
*optimistically* with a one-step backup of the sawtooth upper bound;
actions whose optimistic score cannot beat the best *pessimistic*
(lower-bound) score found so far are pruned without expanding their
observation subtrees.

The chosen action is identical to the plain bounded controller's — pruning
is sound because an action whose upper bound is below another action's
lower bound can never be the argmax — so the pay-off is purely
computational, and the engine records its pruning statistics so the
benefit is measurable (see ``benchmarks/bench_ablations.py``).
:class:`BranchAndBoundController` is the thin campaign-facing adapter over
one engine plus one live session.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.incremental import refine_at
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.sawtooth import SawtoothUpperBound
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.base import RecoveryController
from repro.controllers.bounded import NOTIFICATION_CERTAINTY, TIE_EPSILON
from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.exceptions import ControllerError
from repro.pomdp.tree import _children_all
from repro.recovery.model import RecoveryModel


class BranchAndBoundPolicyEngine(PolicyEngine):
    """Bounded lookahead with upper-bound action pruning.

    With ``certified_termination`` the engine additionally implements
    the first item of the paper's future-work list — "providing of
    guarantees against early termination of the recovery process": it
    chooses ``a_T`` only when the termination reward is at least the
    *upper bound* of every alternative action's value, i.e. when
    terminating is provably optimal under the model.  Until that
    certificate holds, the best non-terminate action runs instead, so the
    policy can never quit while the model can prove recovery is the
    better deal.  (The guarantee is model-relative, like everything else:
    the robustness experiment shows what model overtrust does to it.)

    The sawtooth upper bound and the dense child builder need the dense
    backend; sparse models are rejected with a
    :class:`~repro.exceptions.ControllerError`.

    Args:
        model: the (augmented) recovery model.
        depth: lookahead depth.
        lower: lower-bound hyperplane set (RA-Bound-seeded when None).
        upper: sawtooth upper bound (QMDP-corner-seeded when None).
        refine_online: refine both bounds at every visited belief.
            Sessions can override per episode via their ``refine`` flag.
        refine_min_improvement: lower-bound acceptance threshold.
        certified_termination: require the upper-bound certificate before
            choosing ``a_T`` (see above).
    """

    def __init__(
        self,
        model: RecoveryModel,
        depth: int = 1,
        lower: BoundVectorSet | None = None,
        upper: SawtoothUpperBound | None = None,
        refine_online: bool = True,
        refine_min_improvement: float = 0.0,
        certified_termination: bool = False,
        preflight: bool = False,
    ):
        if model.pomdp.backend.is_sparse:
            raise ControllerError(
                "branch-and-bound requires the dense backend (its sawtooth "
                "upper bound is seeded from a dense QMDP solve); convert the "
                "model with repro.recovery.convert_backend(model, 'dense')"
            )
        super().__init__(model, preflight=preflight)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        if lower is None:
            lower = BoundVectorSet(ra_bound_vector(model.pomdp))
        if upper is None:
            upper = SawtoothUpperBound(model.pomdp)
        self.lower = lower
        self.upper = upper
        self.refine_online = refine_online
        self.refine_min_improvement = refine_min_improvement
        self.certified_termination = certified_termination
        self.expanded_actions = 0
        self.pruned_actions = 0
        self.withheld_terminations = 0
        self.name = f"branch-and-bound (depth {depth})"

    def refinement_state(self):
        """The branch-and-bound engine refines its *lower* set."""
        return self.lower

    def _search(self, belief: np.ndarray, remaining: int):
        """Pruned Max-Avg search at one decision node.

        Every action is first scored *optimistically* with a one-step
        backup of the sawtooth bound — an upper bound on its value at any
        remaining depth (monotonicity of L_p).  Actions are then expanded
        best-first so the incumbent is strong early, and an action whose
        optimistic score cannot beat the incumbent is pruned.

        Returns ``(best_action, best_value, optimistic, children,
        rewards)``; the root decision reuses the last three.
        """
        pomdp = self.model.pomdp
        rewards = pomdp.rewards @ belief
        children = _children_all(pomdp, belief)
        # Per-action dot products, not rows of ``rewards``: a matrix-vector
        # product may round differently, and the pruning order (hence the
        # pinned campaigns) depends on the exact bits.
        optimistic = np.array(
            [
                float(belief @ pomdp.rewards[action])
                + pomdp.discount * float(gamma @ self.upper.value_batch(posteriors))
                for action, (gamma, posteriors) in enumerate(children)
            ]
        )
        best_action = -1
        best_value = -np.inf
        for action in np.argsort(-optimistic):
            if optimistic[action] <= best_value + TIE_EPSILON:
                self.pruned_actions += 1
                continue
            self.expanded_actions += 1
            gamma, posteriors = children[action]
            if remaining == 1:
                future = self.lower.value_batch(posteriors)
            else:
                future = np.array(
                    [self._search(child, remaining - 1)[1] for child in posteriors]
                )
            value = float(rewards[action]) + pomdp.discount * float(gamma @ future)
            if value > best_value:
                best_value = value
                best_action = int(action)
        return best_action, best_value, optimistic, children, rewards

    def _lower_value(self, children, rewards, action: int) -> float:
        """One-step backup of the lower bound for ``action``."""
        gamma, posteriors = children[action]
        return float(rewards[action]) + self.model.pomdp.discount * float(
            gamma @ self.lower.value_batch(posteriors)
        )

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        pomdp = self.model.pomdp
        if (
            self.model.recovery_notification
            and self.model.recovered_probability(belief) >= NOTIFICATION_CERTAINTY
        ):
            return self.terminate_decision(value=0.0)
        refine = self.refine_online if session.refine is None else session.refine
        if refine:
            refine_at(
                pomdp, self.lower, belief,
                min_improvement=self.refine_min_improvement,
            )
            self.upper.refine_at(belief)

        best_action, best_value, optimistic, children, rewards = self._search(
            belief, self.depth
        )
        terminate = self.model.terminate_action
        if terminate is not None and best_action != terminate:
            # Same terminate-on-tie policy as the bounded engine: the
            # pruning loop may have skipped a_T when it merely tied.
            terminate_value = self._lower_value(children, rewards, terminate)
            if terminate_value >= best_value - TIE_EPSILON:
                best_action = terminate
                best_value = max(best_value, terminate_value)
        if (
            self.certified_termination
            and terminate is not None
            and best_action == terminate
        ):
            # Future-work guarantee: only terminate when no alternative's
            # *upper bound* exceeds the termination value — i.e. the model
            # cannot prove that continuing recovery would be better.
            terminate_value = float(rewards[terminate])
            rivals = [
                action
                for action in range(pomdp.n_actions)
                if action != terminate
                and optimistic[action] > terminate_value + TIE_EPSILON
            ]
            if rivals:
                self.withheld_terminations += 1
                best_action = max(
                    rivals, key=lambda action: float(optimistic[action])
                )
                # Re-score the substitute action pessimistically for the
                # decision record.
                best_value = self._lower_value(children, rewards, best_action)
        return Decision(
            action=best_action,
            is_terminate=best_action == terminate,
            value=best_value,
        )


def _engine_attribute(name: str) -> property:
    """A controller attribute that reads and writes its engine's."""
    return property(
        lambda self: getattr(self.engine, name),
        lambda self, value: setattr(self.engine, name, value),
    )


class BranchAndBoundController(RecoveryController):
    """Campaign-facing adapter over a :class:`BranchAndBoundPolicyEngine`.

    Accepts the engine's arguments (see there) and exposes the engine's
    bounds, settings and pruning counters under the historical attribute
    names.
    """

    CAMPAIGN_COUNTERS = (
        "expanded_actions",
        "pruned_actions",
        "withheld_terminations",
    )

    def __init__(
        self,
        model: RecoveryModel,
        depth: int = 1,
        lower: BoundVectorSet | None = None,
        upper: SawtoothUpperBound | None = None,
        refine_online: bool = True,
        refine_min_improvement: float = 0.0,
        certified_termination: bool = False,
        preflight: bool = False,
    ):
        super().__init__(
            engine=BranchAndBoundPolicyEngine(
                model,
                depth=depth,
                lower=lower,
                upper=upper,
                refine_online=refine_online,
                refine_min_improvement=refine_min_improvement,
                certified_termination=certified_termination,
                preflight=preflight,
            )
        )

    depth = _engine_attribute("depth")
    lower = _engine_attribute("lower")
    upper = _engine_attribute("upper")
    refine_online = _engine_attribute("refine_online")
    refine_min_improvement = _engine_attribute("refine_min_improvement")
    certified_termination = _engine_attribute("certified_termination")
    expanded_actions = _engine_attribute("expanded_actions")
    pruned_actions = _engine_attribute("pruned_actions")
    withheld_terminations = _engine_attribute("withheld_terminations")
