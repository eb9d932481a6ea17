"""Position-only inverse kinematics via damped least squares.

The experiment scripts in the paper command arms by Cartesian target
position (the location tables of Fig. 6 are pure ``[x, y, z]`` triples), so
we only solve for end-effector *position*; the redundant orientation degrees
of freedom are absorbed by the damping term.  Damped least squares (the
Levenberg-Marquardt form of resolved-rate IK) is robust near singularities,
which matters because the testbed arms are asked to reach deliberately
awkward targets during fault injection.

The solver uses :func:`position_jacobian`: it reads joint axes and
origins off one :meth:`~repro.kinematics.dh.DHChain.frames` pass and
builds the standard geometric columns — ``z_{i-1} x (p_e - p_{i-1})`` for
a revolute joint, ``z_{i-1}`` for a prismatic one.  One FK pass per
iteration instead of the ``2 x dof`` passes central differences need.
:func:`central_difference_jacobian` is the reference the differential
suite checks the analytic columns against (they agree to ~1e-10; the
suite gates at 1e-6) and swaps into the solver to pin identical
convergence verdicts.

**Stall exit.**  A seed whose best error improved by less than
``_STALL_GAIN`` (1 %) over the last ``_STALL_WINDOW`` (10) iterations is
abandoned: it returns ``converged=False`` with ``iterations`` set to the
iteration at which it stalled.  The window only counts once the seed has
got going — its best error at the window's start must already be 1 %
below its starting error — because a seed starting at a singular posture
(the UR arms' upright home) sits flat for about ten iterations before it
converges.  Seeds that fail plateau at centimetres of error and would
otherwise burn the whole iteration budget before
:meth:`~repro.kinematics.arm.ArmKinematics.plan_move` tries its next
restart.

The exit is a heuristic, not a proof: a seed that plateaus and then
creeps out again (rare, mostly at the edge of reach) is cut off, and
``plan_move`` falls through to its next seed.  The differential suite
pins what does hold — a solve the exit lets converge is bit-identical to
the solve without it, a cut-off solve's error is never below the full
solve's, and every plan from the home and sleep postures to the lab
decks' named locations is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kinematics.dh import DHChain
from repro.obs import OBS

_OBS_JACOBIANS = OBS.registry.counter(
    "kinematics_ik_jacobians_total",
    "Position-Jacobian evaluations, by mode.",
    labels=("mode",),
)
_OBS_SOLVES = OBS.registry.counter(
    "kinematics_ik_solves_total",
    "IK solves, by outcome (converged, stalled, exhausted).",
    labels=("outcome",),
)

#: Largest joint-space step per iteration (keeps the linearization valid).
_MAX_STEP = 0.5
#: Stall exit: a seed stops once its best error improved by less than
#: ``_STALL_GAIN`` (relative) over the last ``_STALL_WINDOW`` iterations.
_STALL_WINDOW = 10
_STALL_GAIN = 0.01


@dataclass(frozen=True)
class IKResult:
    """Outcome of an IK solve.

    ``converged`` is False when the target is unreachable (outside the arm's
    workspace or blocked by joint limits); ``error`` is the remaining
    Cartesian distance to the target, which callers compare against their
    tolerance.  ``q`` holds builtin floats (never numpy scalars) so results
    serialize type-stably into reports and JSONL traces.

    For a non-converged solve, ``q`` and ``error`` are the best posture
    seen and its error, and ``iterations`` is where the solve gave up:
    the stall iteration when the stall exit fired (see the module
    docstring), otherwise the full iteration budget.
    """

    q: Tuple[float, ...]
    error: float
    iterations: int
    converged: bool


def central_difference_jacobian(
    chain: DHChain, q: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Numeric 3xN position Jacobian by central differences (the reference)."""
    if OBS.enabled:
        _OBS_JACOBIANS.inc(1, mode="numeric")
    n = chain.dof
    jac = np.zeros((3, n))
    for i in range(n):
        dq = np.zeros(n)
        dq[i] = eps
        p_plus = chain.end_effector_position(q + dq)
        p_minus = chain.end_effector_position(q - dq)
        jac[:, i] = (p_plus - p_minus) / (2 * eps)
    return jac


def position_jacobian(chain: DHChain, q: np.ndarray) -> np.ndarray:
    """Exact 3xN position Jacobian from one forward-kinematics pass.

    Standard geometric construction: for revolute joint *i* the column is
    ``z_{i-1} x (p_e - p_{i-1})``, for a prismatic joint it is ``z_{i-1}``,
    with axes and origins read off the chain's frame stack.
    """
    if OBS.enabled:
        _OBS_JACOBIANS.inc(1, mode="analytic")
    frames = chain.frames(q)  # (dof + 1, 4, 4)
    z = frames[:-1, :3, 2]  # (dof, 3) joint axes
    p = frames[:-1, :3, 3]  # (dof, 3) joint origins
    p_e = frames[-1, :3, 3]
    columns = np.where(
        chain.prismatic_mask[:, None], z, np.cross(z, p_e - p)
    )  # (dof, 3)
    return columns.T


def _limit_bounds(joint_limits) -> Tuple[np.ndarray, np.ndarray]:
    """Joint limits as a pair of ``(dof,)`` lo/hi arrays."""
    limits = np.asarray(joint_limits, dtype=np.float64)
    return limits[..., 0], limits[..., 1]


def solve_position_ik(
    chain: DHChain,
    target: Sequence[float],
    q0: Sequence[float],
    joint_limits: Optional[Sequence[Tuple[float, float]]] = None,
    tolerance: float = 1e-4,
    max_iterations: int = 200,
    damping: float = 0.05,
) -> IKResult:
    """Solve for joint angles placing the end effector at *target*.

    Iterates ``q += J^T (J J^T + λ²I)^{-1} e`` from the seed posture *q0*,
    clamping to *joint_limits* before every error evaluation — so the
    recorded best posture (and therefore ``IKResult.q``) is always
    feasible, even when the seed itself violates the limits.  Convergence
    means the Cartesian error dropped below *tolerance*; a seed whose best
    error stalls (module docstring) returns early, not converged.
    """
    q = np.asarray(q0, dtype=np.float64).copy()
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.shape != (3,):
        raise ValueError(f"target must be a 3D point, got shape {tgt.shape}")
    limits_lo = limits_hi = None
    if joint_limits is not None:
        limits_lo, limits_hi = _limit_bounds(joint_limits)
        np.clip(q, limits_lo, limits_hi, out=q)

    lam_sq = damping * damping
    best_q = q.copy()
    best_err = float("inf")
    best_history: List[float] = []

    for iteration in range(1, max_iterations + 1):
        error_vec = tgt - chain.end_effector_position(q)
        err = float(np.linalg.norm(error_vec))
        if err < best_err:
            best_err = err
            best_q = q.copy()
        if err < tolerance:
            if OBS.enabled:
                _OBS_SOLVES.inc(1, outcome="converged")
            return IKResult(
                tuple(float(x) for x in q), err, iteration, converged=True
            )
        best_history.append(best_err)
        if iteration > _STALL_WINDOW:
            window_start = best_history[-1 - _STALL_WINDOW]
            started = window_start <= (1.0 - _STALL_GAIN) * best_history[0]
            if started and best_err > (1.0 - _STALL_GAIN) * window_start:
                if OBS.enabled:
                    _OBS_SOLVES.inc(1, outcome="stalled")
                return IKResult(
                    tuple(float(x) for x in best_q), best_err, iteration,
                    converged=False,
                )

        jac = position_jacobian(chain, q)
        jjt = jac @ jac.T + lam_sq * np.eye(3)
        dq = jac.T @ np.linalg.solve(jjt, error_vec)

        # Limit the per-step joint motion so the linearization stays valid.
        step_norm = float(np.linalg.norm(dq))
        if step_norm > _MAX_STEP:
            dq *= _MAX_STEP / step_norm
        q = q + dq

        if limits_lo is not None:
            np.clip(q, limits_lo, limits_hi, out=q)

    if OBS.enabled:
        _OBS_SOLVES.inc(1, outcome="exhausted")
    return IKResult(
        tuple(float(x) for x in best_q), best_err, max_iterations, converged=False
    )


def solve_position_ik_batch(
    chain: DHChain,
    targets: Sequence[Sequence[float]],
    q0: Sequence[float] | Sequence[Sequence[float]],
    **options,
) -> List[IKResult]:
    """:func:`solve_position_ik` once per row of *targets*.

    *q0* is either a single seed posture shared by every target or one
    seed row per target; *options* pass through to the scalar solver, so
    results are exactly ``[solve_position_ik(chain, t, q, ...) ...]``.
    """
    tgts = np.asarray(targets, dtype=np.float64)
    if tgts.ndim != 2 or tgts.shape[1] != 3:
        raise ValueError(f"targets must be (T, 3) points, got shape {tgts.shape}")
    seeds = np.asarray(q0, dtype=np.float64)
    if seeds.ndim == 1:
        seeds = np.broadcast_to(seeds, (len(tgts), chain.dof))
    elif seeds.shape != (len(tgts), chain.dof):
        raise ValueError(
            f"q0 must be ({chain.dof},) or ({len(tgts)}, {chain.dof}), "
            f"got shape {seeds.shape}"
        )
    return [solve_position_ik(chain, t, q, **options) for t, q in zip(tgts, seeds)]
