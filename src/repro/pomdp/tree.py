"""Finite-depth Max-Avg lookahead (Figure 1(b)).

The online controller chooses actions by unrolling the belief-state Bellman
recursion (Eq. 2) to a small fixed depth and substituting a value estimate —
a lower bound, in the bounded controller — at the leaf beliefs.  The tree is
a Max-Avg tree: values of sibling observation branches are averaged with the
observation probabilities ``gamma^{pi,a}(o)`` (Eq. 3), and the maximum over
actions is taken at each decision node.

Per-decision cost matters — Table 1's "algorithm time" column is this
expansion — so there are exactly two expansion routines:

* :func:`_expand`, the recursion of Eq. 2 for any depth.  Depth 1 is its
  base case: all of a node's leaf beliefs (across *every* action) are
  evaluated in one :meth:`LeafValue.value_batch` call, and the joint
  factors ``p(s', o | s, a)`` come from the shared
  :class:`~repro.pomdp.cache.JointFactorCache` when the model has one, so
  each node's children are a single matrix product;
* :func:`_expand_depth1_sparse`, the fused depth-1 kernel used on the
  sparse backend with a linear-function leaf.  It skips posteriors
  entirely and builds the ``(k, |A|, |O|)`` score block from a few CSR ×
  dense-block products, over action slices when the whole block would
  exceed the cache budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.linalg.ops import (
    BACKUP_TIE_EPSILON,
    observation_matrix_dense,
    predict,
    rewards_matvec,
    tie_break_argmax,
)
from repro.obs.telemetry import span
from repro.obs.telemetry import active as telemetry_active
from repro.pomdp.belief import GAMMA_EPSILON
from repro.pomdp.cache import (
    JointFactorCache,
    SparseJointFactorCache,
    charge_block,
    get_joint_cache,
    max_cache_bytes,
)
from repro.pomdp.model import POMDP

#: Root values within this of the maximum count as tied.  Ties break toward
#: the lowest action index; the tolerance (rather than exact argmax) keeps
#: the winning action identical across storage backends, whose bound vectors
#: agree only to solver precision (~1e-13), not bit-for-bit.
DECISION_TIE_EPSILON = 1e-9


def _best_action(action_values: np.ndarray) -> int:
    """Lowest-index action within :data:`DECISION_TIE_EPSILON` of the max."""
    return int(tie_break_argmax(action_values, DECISION_TIE_EPSILON))


class LeafValue(Protocol):
    """A value estimate evaluated at the leaves of the lookahead tree."""

    def value(self, belief: np.ndarray) -> float:
        """Estimate of the POMDP value at ``belief``."""
        ...  # pragma: no cover - protocol

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value` over a ``(k, |S|)`` stack of beliefs."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class TreeDecision:
    """Outcome of one lookahead expansion.

    Attributes:
        action: index of the maximising action at the root.
        value: root value (the max over ``action_values``).
        action_values: per-action root values; disallowed actions are
            ``-inf``.
        leaf_evaluations: number of leaf-value evaluations performed.
        nodes: number of internal decision nodes expanded.
    """

    action: int
    value: float
    action_values: np.ndarray
    leaf_evaluations: int
    nodes: int


def _children_all(
    pomdp: POMDP,
    belief: np.ndarray,
    cache: JointFactorCache | SparseJointFactorCache | None = None,
    action_mask: np.ndarray | None = None,
):
    """Per-action ``(gamma, posteriors)`` for every (allowed) action.

    Returns a list indexed by action; masked-out actions hold ``None`` and
    unreachable observations (``gamma <= GAMMA_EPSILON``) are pruned.  With
    a cache, all joints come from one matrix product; without one, each
    action's joint is ``predict(belief, a)`` times its dense observation
    matrix (the branch-and-bound engine builds its children this way).
    """
    joint_all = cache.joint_all(belief) if cache is not None else None
    children: list[tuple[np.ndarray, np.ndarray] | None] = []
    for action in range(pomdp.n_actions):
        if action_mask is not None and not action_mask[action]:
            children.append(None)
            continue
        if joint_all is not None:
            joint = joint_all[action]
        else:
            predicted = predict(pomdp.transitions, belief, action)
            joint = predicted[:, None] * observation_matrix_dense(
                pomdp.observations, action
            )
        gamma = joint.sum(axis=0)
        reachable = gamma > GAMMA_EPSILON
        posteriors = (joint[:, reachable] / gamma[reachable]).T
        children.append((gamma[reachable], posteriors))
    return children


def _batched_leaf_values(
    children: list[tuple[np.ndarray, np.ndarray] | None],
    leaf: LeafValue,
) -> list[np.ndarray | None]:
    """One ``value_batch`` call covering every action's leaf beliefs.

    The per-row arithmetic is identical to per-action calls; only the
    batching changes, so results are bit-for-bit the same for any leaf
    estimator that is row-independent (all shipped ones are).
    """
    stacks = [child[1] for child in children if child is not None]
    if not stacks:
        return [None for _ in children]
    beliefs = np.vstack(stacks)
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count("tree.leaf_batches")
    with span("tree.leaf_batch", category="tree", beliefs=beliefs.shape[0]):
        values = leaf.value_batch(beliefs)
    futures: list[np.ndarray | None] = []
    offset = 0
    for child in children:
        if child is None:
            futures.append(None)
            continue
        count = child[1].shape[0]
        futures.append(values[offset : offset + count])
        offset += count
    return futures


def expand_tree(
    pomdp: POMDP,
    belief: np.ndarray,
    depth: int,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None = None,
) -> TreeDecision:
    """Expand the Max-Avg tree of Figure 1(b) and pick the best root action.

    Args:
        pomdp: the model being controlled.
        belief: root belief state.
        depth: number of action layers to expand; must be at least 1.
        leaf: value estimate substituted at depth-0 beliefs.
        allowed_actions: optional boolean mask of shape ``(|A|,)``
            restricting the *root* decision (inner nodes always consider
            every action, matching the recursion of Eq. 2).  It must allow
            at least one action.

    Returns:
        A :class:`TreeDecision`; ties at the root break toward the
        lowest-index action, so action ordering in the model is the
        deterministic tie-breaker.

    Raises:
        ValueError: ``depth`` is below 1, or ``allowed_actions`` has the
            wrong shape or allows no action.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if allowed_actions is not None:
        allowed_actions = np.asarray(allowed_actions, dtype=bool)
        if allowed_actions.shape != (pomdp.n_actions,):
            raise ValueError(
                f"allowed_actions must have shape ({pomdp.n_actions},), "
                f"got {allowed_actions.shape}"
            )
        if not allowed_actions.any():
            raise ValueError("allowed_actions must allow at least one action")
    cache = get_joint_cache(pomdp)
    fused = (
        depth == 1
        and cache is None
        and pomdp.backend.is_sparse
        and getattr(leaf, "vectors", None) is not None
    )
    counts = {"nodes": 0, "leaves": 0}
    # Mode-tagged so dense and sparse traces of the same campaign are
    # directly comparable (the fused path replaces the generic one).
    mode = "fused_sparse" if fused else "generic"
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count(f"tree.expansions.{mode}")
    with span("tree.expand", category="tree", depth=depth, mode=mode):
        if fused:
            action_values = _expand_depth1_sparse(
                pomdp, belief, leaf, allowed_actions, counts
            )
        else:
            action_values = _expand(
                pomdp, belief, depth, leaf, cache, counts, allowed_actions
            )
    best_action = _best_action(action_values)
    return TreeDecision(
        action=best_action,
        value=float(action_values[best_action]),
        action_values=action_values,
        leaf_evaluations=counts["leaves"],
        nodes=counts["nodes"],
    )


def _expand(
    pomdp: POMDP,
    belief: np.ndarray,
    depth: int,
    leaf: LeafValue,
    cache: JointFactorCache | SparseJointFactorCache | None,
    counts: dict[str, int],
    action_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-action Max-Avg values at one decision node (Eq. 2).

    Depth 1 is the base case: every allowed action's reachable posteriors
    are evaluated through a single ``leaf.value_batch`` call.  Deeper
    nodes recurse into each posterior and back up the maximum of its
    action values.  Masked-out actions are ``-inf``.  ``counts``
    accumulates the expanded nodes and the leaf evaluations.
    """
    counts["nodes"] += 1
    rewards = rewards_matvec(pomdp.rewards, belief)
    children = _children_all(pomdp, belief, cache, action_mask)
    if depth == 1:
        futures = _batched_leaf_values(children, leaf)
        counts["leaves"] += sum(
            child[1].shape[0] for child in children if child is not None
        )
    else:
        futures = [
            None
            if child is None
            else np.array(
                [
                    _expand(pomdp, posterior, depth - 1, leaf, cache, counts).max()
                    for posterior in child[1]
                ]
            )
            for child in children
        ]
    action_values = np.full(pomdp.n_actions, -np.inf)
    for action, child in enumerate(children):
        if child is None:
            continue
        gamma, _ = child
        action_values[action] = rewards[action] + pomdp.discount * float(
            gamma @ futures[action]
        )
    return action_values


def _expand_depth1_sparse(
    pomdp: POMDP,
    belief: np.ndarray,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None,
    counts: dict[str, int],
    max_bytes: int | None = None,
) -> np.ndarray:
    """Fused depth-1 expansion on the sparse backend (no factor cache).

    At depth 1 with a linear-function leaf set ``B``, an action's value is

        ``V(a) = r_a . pi + beta * sum_o max_b (pred_a * Z_a[:, o]) . b``

    — the posterior normalisation ``1/gamma_a(o)`` cancels against the
    Max-Avg weighting, so no posterior is ever materialised.  One
    ``corrections @ Z`` CSR × dense-block product yields every action's
    observation-probability correction, and one such product per bound
    vector (with the correction data scaled by that vector) yields the
    ``(k, |A|, |O|)`` score block.  Actions with observation overrides are
    recomputed through their own matrix, since they do not observe through
    the shared base matrix.

    The block is charged against the cache budget
    (:func:`~repro.pomdp.cache.charge_block`) *before* it exists.  When it
    does not fit, the kernel runs over contiguous action slices sized to
    the budget; each slice's rows of every product are bit-identical to
    the full product's, so the result does not depend on the slicing.
    Values agree with the generic recursion to summation re-association
    (~1e-16); branch bookkeeping (reachability, usage winners) is
    identical.
    """
    transitions = pomdp.transitions
    observations = pomdp.observations
    base_obs = observations.base
    n_actions = pomdp.n_actions
    n_observations = pomdp.n_observations
    vectors = np.atleast_2d(np.asarray(leaf.vectors, dtype=float))
    k = vectors.shape[0]
    action_bytes = 8 * (k + 3) * n_observations
    if charge_block(
        action_bytes * n_actions,
        n_states=pomdp.n_states,
        kind="tree.depth1_block",
        max_bytes=max_bytes,
    ):
        width = n_actions
    else:
        width = max(1, max_cache_bytes(max_bytes) // action_bytes)

    pred_base = transitions.predict_base(belief)
    corrections = transitions.correction_matrix(belief).tocsr()
    gamma_base = np.asarray(base_obs.T @ pred_base).ravel()
    scores_base = np.asarray(base_obs.T @ (vectors * pred_base).T).T  # (k, |O|)
    rewards = rewards_matvec(pomdp.rewards, belief)
    overrides = sorted(observations.overrides)
    record = getattr(leaf, "record_wins", None)
    action_values = np.empty(n_actions)

    for start in range(0, n_actions, width):
        stop = min(start + width, n_actions)
        rows = corrections if width == n_actions else corrections[start:stop]
        # gamma[a, o] = gamma_base[o] + (corrections[a] @ base_obs)[o]
        gamma = (rows @ base_obs).toarray() + gamma_base[None, :]
        scores = np.empty((k, stop - start, n_observations))
        scaled = rows.copy()
        for j in range(k):
            scaled.data = rows.data * vectors[j, rows.indices]
            scores[j] = (scaled @ base_obs).toarray()
        scores += scores_base[:, None, :]

        for action in overrides:
            if not start <= action < stop:
                continue
            # Overridden observation rows bypass the base matrix entirely.
            matrix = observations.matrix(action)
            lo, hi = corrections.indptr[action], corrections.indptr[action + 1]
            pred = pred_base.copy()
            pred[corrections.indices[lo:hi]] += corrections.data[lo:hi]
            gamma[action - start] = np.asarray(matrix.T @ pred).ravel()
            scores[:, action - start, :] = np.asarray(
                matrix.T @ (vectors * pred).T
            ).T

        reachable = gamma > GAMMA_EPSILON  # (stop - start, |O|)
        if allowed_actions is not None:
            reachable &= allowed_actions[start:stop, None]
        leaves = int(np.count_nonzero(reachable))
        counts["leaves"] += leaves
        if record is not None and leaves:
            # Row-major selection is action-major, observation-ascending;
            # usage is a count, so crediting slice by slice is exact.  A
            # single bound vector wins every branch by construction.
            if k == 1:
                record(np.zeros(leaves, dtype=np.intp))
            else:
                winners = tie_break_argmax(scores, BACKUP_TIE_EPSILON, axis=0)
                record(winners[reachable])

        # max over one vector is the vector itself; skip the (k, |A|, |O|)
        # reduction on the single-seed hot path.  scores is not read again,
        # so zeroing the unreachable branches in place is safe.
        best = scores[0] if k == 1 else scores.max(axis=0)
        best[~reachable] = 0.0
        action_values[start:stop] = rewards[start:stop] + pomdp.discount * best.sum(
            axis=1
        )

    counts["nodes"] += 1
    if allowed_actions is not None:
        action_values[~allowed_actions] = -np.inf
    return action_values
