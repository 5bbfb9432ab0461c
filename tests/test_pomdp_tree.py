"""Tests for the Max-Avg lookahead tree (Figure 1(b))."""

import hashlib

import numpy as np
import pytest

from repro.pomdp.belief import belief_bellman_backup
from repro.pomdp.tree import expand_tree
from tests.conftest import random_pomdp
from tests.test_pomdp_model import tiny_pomdp


class ZeroLeaf:
    def value(self, belief):
        return 0.0

    def value_batch(self, beliefs):
        return np.zeros(np.atleast_2d(beliefs).shape[0])


class LinearLeaf:
    """pi . w — a single-hyperplane leaf for cross-checks."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def value(self, belief):
        return float(belief @ self.weights)

    def value_batch(self, beliefs):
        return np.atleast_2d(beliefs) @ self.weights


class TestDepthOne:
    def test_equals_bellman_backup(self):
        pomdp = tiny_pomdp()
        belief = np.array([0.5, 0.5])
        leaf = LinearLeaf([-2.0, 0.0])
        decision = expand_tree(pomdp, belief, depth=1, leaf=leaf)
        direct = belief_bellman_backup(pomdp, belief, leaf.value)
        assert np.isclose(decision.value, direct)

    def test_picks_repair_in_fault_belief(self):
        pomdp = tiny_pomdp()
        decision = expand_tree(
            pomdp, np.array([1.0, 0.0]), depth=1, leaf=LinearLeaf([-2.0, 0.0])
        )
        assert decision.action == 0  # repair beats idle (-0.5 vs -1-2)

    def test_action_values_complete(self):
        pomdp = tiny_pomdp()
        decision = expand_tree(
            pomdp, np.array([0.5, 0.5]), depth=1, leaf=ZeroLeaf()
        )
        assert decision.action_values.shape == (pomdp.n_actions,)
        assert np.isfinite(decision.action_values).all()

    def test_counts_leaves(self):
        pomdp = tiny_pomdp()
        decision = expand_tree(
            pomdp, np.array([0.5, 0.5]), depth=1, leaf=ZeroLeaf()
        )
        assert decision.leaf_evaluations > 0
        assert decision.nodes == 1


class TestAllowedActions:
    def test_masked_action_excluded(self):
        pomdp = tiny_pomdp()
        allowed = np.array([False, True])
        decision = expand_tree(
            pomdp,
            np.array([1.0, 0.0]),
            depth=1,
            leaf=ZeroLeaf(),
            allowed_actions=allowed,
        )
        assert decision.action == 1
        assert decision.action_values[0] == -np.inf

    def test_mask_only_applies_to_root(self):
        pomdp = tiny_pomdp()
        allowed = np.array([False, True])
        # Depth 2: the inner node may still use action 0, which the root value
        # of action 1 benefits from — just check it runs and yields finite v.
        decision = expand_tree(
            pomdp,
            np.array([1.0, 0.0]),
            depth=2,
            leaf=ZeroLeaf(),
            allowed_actions=allowed,
        )
        assert np.isfinite(decision.value)

    @pytest.mark.parametrize(
        "allowed",
        [[False, False], [True], [True, True, True]],
        ids=["none-allowed", "too-short", "too-long"],
    )
    def test_invalid_mask_rejected(self, allowed):
        with pytest.raises(ValueError, match="allowed_actions"):
            expand_tree(
                tiny_pomdp(),
                np.array([1.0, 0.0]),
                depth=1,
                leaf=ZeroLeaf(),
                allowed_actions=np.array(allowed),
            )


class TestDeeperTrees:
    def test_depth_two_matches_nested_backup(self):
        pomdp = tiny_pomdp()
        belief = np.array([0.6, 0.4])
        leaf = LinearLeaf([-3.0, -0.1])
        decision = expand_tree(pomdp, belief, depth=2, leaf=leaf)
        nested = belief_bellman_backup(
            pomdp,
            belief,
            lambda b: belief_bellman_backup(pomdp, b, leaf.value),
        )
        assert np.isclose(decision.value, nested, atol=1e-10)

    def test_deeper_never_worse_with_zero_leaf_upper_bound(self):
        # With the trivial zero *upper* bound at the leaves, value estimates
        # shrink (get more realistic) as depth grows: more real costs folded.
        pomdp = tiny_pomdp()
        belief = np.array([0.5, 0.5])
        v1 = expand_tree(pomdp, belief, depth=1, leaf=ZeroLeaf()).value
        v2 = expand_tree(pomdp, belief, depth=2, leaf=ZeroLeaf()).value
        assert v2 <= v1 + 1e-12

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            expand_tree(
                tiny_pomdp(), np.array([0.5, 0.5]), depth=0, leaf=ZeroLeaf()
            )


class TestDepthThreePin:
    """Table 1's deepest heuristic baseline, pinned bit for bit.

    Recorded on the implementation that still kept a separate depth-1
    expansion beside the recursion; one recursion must reproduce it.
    """

    ACTION_VALUES_SHA256 = (
        "412e89d621f4f2d6be0f84665c61e755e3cac0f51e2031e0cfec84bd7ad08740"
    )

    def test_emn_heuristic_depth_three(self, emn_system):
        from repro.controllers import HeuristicController

        model = emn_system.model
        controller = HeuristicController(model, depth=3)
        allowed = np.ones(model.pomdp.n_actions, dtype=bool)
        allowed[model.terminate_action] = False
        decision = expand_tree(
            model.pomdp,
            model.initial_belief(),
            depth=3,
            leaf=controller.leaf,
            allowed_actions=allowed,
        )
        digest = hashlib.sha256(
            np.ascontiguousarray(decision.action_values, dtype=np.float64)
        ).hexdigest()
        assert digest == self.ACTION_VALUES_SHA256
        assert decision.nodes == 22480
        assert decision.leaf_evaluations == 24484146
        assert decision.action == 8


class TestMonotonicityInLeaf:
    def test_better_leaf_never_lowers_root(self):
        rng = np.random.default_rng(5)
        pomdp = random_pomdp(rng)
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        low = LinearLeaf(-rng.uniform(1, 3, size=pomdp.n_states))
        high = LinearLeaf(low.weights + rng.uniform(0, 1, size=pomdp.n_states))
        v_low = expand_tree(pomdp, belief, depth=2, leaf=low).value
        v_high = expand_tree(pomdp, belief, depth=2, leaf=high).value
        assert v_high >= v_low - 1e-9


class TestFusedSparseKernels:
    """The fused sparse depth-1 kernel does not depend on its action
    slicing and agrees with the generic recursion, branch bookkeeping
    included."""

    @staticmethod
    def _setup(seed=3, n_vectors=4):
        from repro.bounds.ra_bound import ra_bound_vector
        from repro.systems.tiered import build_tiered_system

        system = build_tiered_system(replicas=(2, 2, 2), backend="sparse")
        pomdp = system.model.pomdp
        rng = np.random.default_rng(seed)
        seed_vector = ra_bound_vector(pomdp)
        stack = [seed_vector]
        for _ in range(n_vectors - 1):
            stack.append(seed_vector - rng.uniform(0.0, 2.0, pomdp.n_states))
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        return pomdp, belief, np.array(stack)

    @staticmethod
    def _leaf(stack):
        from repro.bounds.vector_set import BoundVectorSet

        return BoundVectorSet(stack)

    @classmethod
    def _fused(cls, pomdp, belief, stack, mask=None, width=None):
        """Run the fused kernel, in slices of ``width`` actions if given;
        return its action values, branch counts and leaf usage."""
        from repro.pomdp.tree import _expand_depth1_sparse

        max_bytes = None
        if width is not None:
            action_bytes = 8 * (stack.shape[0] + 3) * pomdp.n_observations
            max_bytes = width * action_bytes
        leaf, counts = cls._leaf(stack), {"nodes": 0, "leaves": 0}
        values = _expand_depth1_sparse(
            pomdp, belief, leaf, mask, counts, max_bytes=max_bytes
        )
        return values, counts, leaf._usage

    @classmethod
    def _generic(cls, pomdp, belief, stack, mask=None):
        """Run the generic depth-1 recursion, the reference."""
        from repro.pomdp.tree import _expand

        leaf, counts = cls._leaf(stack), {"nodes": 0, "leaves": 0}
        values = _expand(pomdp, belief, 1, leaf, None, counts, mask)
        return values, counts, leaf._usage

    def test_batched_matches_looped_kernel(self):
        """All actions in one block and one action per slice (the looped
        schedule) give bit-identical values and branch bookkeeping."""
        pomdp, belief, stack = self._setup()
        batched, batched_counts, batched_usage = self._fused(
            pomdp, belief, stack
        )
        looped, looped_counts, looped_usage = self._fused(
            pomdp, belief, stack, width=1
        )
        np.testing.assert_array_equal(batched, looped)
        assert batched_counts == looped_counts
        assert batched_counts["nodes"] == looped_counts["nodes"] == 1
        np.testing.assert_array_equal(batched_usage, looped_usage)

    def test_kernels_match_generic_expansion(self):
        """The fused kernel agrees with the generic recursion on the
        chosen action, the action values and the leaf evaluations."""
        pomdp, belief, stack = self._setup(seed=11)
        fused, fused_counts, _ = self._fused(pomdp, belief, stack)
        generic, generic_counts, _ = self._generic(pomdp, belief, stack)
        assert int(np.argmax(fused)) == int(np.argmax(generic))
        np.testing.assert_allclose(fused, generic, atol=1e-10)
        assert fused_counts["leaves"] == generic_counts["leaves"]

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_slices_match_one_slice_and_recursion(self, masked):
        """The fused kernel forced into several action slices (via
        ``max_bytes``) is bit-identical to one slice, and agrees with the
        generic recursion, the reference, on values and leaf bookkeeping."""
        pomdp, belief, stack = self._setup(seed=7 if masked else 3)
        mask = None
        if masked:
            mask = np.ones(pomdp.n_actions, dtype=bool)
            mask[::2] = False

        whole, whole_counts, whole_usage = self._fused(
            pomdp, belief, stack, mask
        )
        for width in (1, 3, pomdp.n_actions - 1):
            values, counts, usage = self._fused(
                pomdp, belief, stack, mask, width=width
            )
            np.testing.assert_array_equal(values, whole)
            np.testing.assert_array_equal(usage, whole_usage)
            assert counts == whole_counts

        generic, counts, usage = self._generic(pomdp, belief, stack, mask)
        np.testing.assert_allclose(whole, generic, atol=1e-10)
        assert counts == whole_counts
        assert whole_counts["nodes"] == 1
        np.testing.assert_array_equal(usage, whole_usage)
        if masked:
            assert np.all(np.isneginf(whole[~mask]))
            assert np.isfinite(whole[mask]).all()

    def test_cache_budget_decline_runs_sliced_kernel(self, monkeypatch):
        """REPRO_MAX_CACHE_BYTES=0 declines both the joint cache and the
        whole score block; expand_tree then runs the fused kernel one
        action at a time and still agrees with the unconstrained
        decision."""
        from repro.pomdp.cache import MAX_CACHE_BYTES_ENV, clear_caches
        from repro.obs.telemetry import session

        pomdp, belief, stack = self._setup(seed=19)
        clear_caches()
        free = expand_tree(pomdp, belief, depth=1, leaf=self._leaf(stack))
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "0")
        clear_caches()
        with session() as telemetry:
            constrained = expand_tree(
                pomdp, belief, depth=1, leaf=self._leaf(stack)
            )
        assert constrained.action == free.action
        np.testing.assert_allclose(
            constrained.action_values, free.action_values, atol=1e-10
        )
        counters = dict(telemetry.process_counters)
        assert counters.get("cache.declines", 0) >= 1
        events = [
            r
            for r in telemetry.snapshot().events
            if r["event"] == "cache_decline"
        ]
        assert any(r.get("kind") == "tree.depth1_block" for r in events)
        clear_caches()
