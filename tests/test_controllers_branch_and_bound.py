"""Tests for the branch-and-bound controller (paper's future work)."""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedController
from repro.controllers.branch_and_bound import BranchAndBoundController
from repro.exceptions import ControllerError
from repro.sim.campaign import run_campaign
from repro.systems.faults import FaultKind
from repro.systems.tiered import build_tiered_system


class TestConstruction:
    def test_default_bounds_seeded(self, simple_system):
        controller = BranchAndBoundController(simple_system.model)
        assert len(controller.lower) == 1
        assert len(controller.upper) == 0

    def test_invalid_depth_rejected(self, simple_system):
        with pytest.raises(ValueError):
            BranchAndBoundController(simple_system.model, depth=0)

    def test_sparse_model_rejected(self):
        system = build_tiered_system((2, 2), backend="sparse")
        with pytest.raises(ControllerError, match="dense backend"):
            BranchAndBoundController(system.model)


class TestDecisionSoundness:
    def test_agrees_with_bounded_controller(self, simple_system):
        """Pruning must not change the selected action (up to value ties)."""
        pomdp = simple_system.model.pomdp
        shared = BoundVectorSet(ra_bound_vector(pomdp))
        bounded = BoundedController(
            simple_system.model, depth=1, bound_set=shared, refine_online=False
        )
        pruned = BranchAndBoundController(
            simple_system.model, depth=1, lower=shared, refine_online=False
        )
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=40):
            bounded.reset(initial_belief=belief)
            pruned.reset(initial_belief=belief)
            a = bounded.decide()
            b = pruned.decide()
            # Values must agree; actions may differ only on exact ties.
            assert np.isclose(a.value, b.value, atol=1e-9)

    def test_prunes_something(self, simple_system):
        controller = BranchAndBoundController(
            simple_system.model, depth=2, refine_online=False
        )
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_a] = 1.0
        controller.reset(initial_belief=belief)
        controller.decide()
        assert controller.pruned_actions > 0
        assert controller.expanded_actions > 0

    def test_terminates_on_recovered_belief(self, simple_system):
        controller = BranchAndBoundController(simple_system.model, depth=1)
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.null_state] = 1.0
        controller.reset(initial_belief=belief)
        assert controller.decide().is_terminate


class TestEndToEnd:
    def test_recovers_on_simple_system(self, simple_system):
        controller = BranchAndBoundController(simple_system.model, depth=1)
        result = run_campaign(
            controller,
            fault_states=np.array(
                [simple_system.fault_a, simple_system.fault_b]
            ),
            injections=40,
            seed=13,
        )
        assert result.summary.unrecovered == 0
        assert result.summary.early_terminations == 0

    def test_recovers_on_emn(self, emn_system):
        controller = BranchAndBoundController(
            emn_system.model, depth=1, refine_min_improvement=1.0
        )
        result = run_campaign(
            controller,
            fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
            injections=15,
            seed=13,
            monitor_tail=5.0,
        )
        assert result.summary.unrecovered == 0
        assert controller.pruned_actions > 0

    def test_notified_model_supported(self, simple_notified_system):
        controller = BranchAndBoundController(
            simple_notified_system.model, depth=1
        )
        result = run_campaign(
            controller,
            fault_states=np.array(
                [
                    simple_notified_system.fault_a,
                    simple_notified_system.fault_b,
                ]
            ),
            injections=20,
            seed=5,
        )
        assert result.summary.unrecovered == 0
