"""Replay of event schedules with incremental estimator maintenance.

Processing every insertion of an exa-scale stream is impossible; replaying
only *state-changing first-occurrence events* (see
:mod:`repro.simulation.events`) is exact and cheap. During replay this
module maintains, incrementally and exactly:

* the register array (through the real Algorithm 2 transition),
* the ML coefficient ``alpha' = alpha * 2**(64-p)`` as an *integer* — no
  floating-point cancellation even when alpha shrinks to ~2**-50 near the
  end of the operating range — and the ``beta`` counts (Algorithm 3's
  outputs, kept in sync with O(1)-ish per-event work),
* the martingale estimator of Algorithm 4, using the identity
  ``mu = alpha / m`` (Sec. 3.3's h(r) is exactly a register's alpha
  contribution divided by m).

At each checkpoint the ML estimate (Algorithm 8) and the martingale
estimate are recorded. Tests assert that the incrementally maintained
coefficients equal Algorithm 3 run from scratch on the replayed registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.distribution import omega_scaled_table, phi_table
from repro.core.mlestimation import bias_correction_factor
from repro.core.params import ExaLogLogParams
from repro.estimation.batch import EXPONENT_AXIS
from repro.estimation.newton import solve_ml_equation
from repro.simulation.events import EventSchedule


@dataclass
class ReplayResult:
    """Per-checkpoint estimates of one replayed run."""

    checkpoints: list[float]
    ml_estimates: list[float]
    martingale_estimates: list[float]
    registers: list[int]
    alpha_scaled: int
    beta: list[int]
    newton_iterations_max: int

    def final_state(self) -> list[int]:
        return list(self.registers)


def _ml_estimate(
    alpha_scaled: int,
    beta: list[int],
    params: ExaLogLogParams,
    bias_factor: float,
) -> tuple[float, int]:
    beta_map = {u: count for u, count in enumerate(beta) if count}
    solution = solve_ml_equation(alpha_scaled / (1 << (64 - params.p)), beta_map)
    estimate = params.m * solution.nu
    if estimate > 0.0:
        estimate *= bias_factor
    return estimate, solution.iterations


def _solve_checkpoints(
    alpha_snapshots: list[int],
    beta_snapshots,
    params: ExaLogLogParams,
    bias_factor: float,
) -> tuple[list[float], int]:
    """One simultaneous Newton solve over all checkpoint coefficients.

    Bit-identical to calling :func:`_ml_estimate` per checkpoint — the
    batched solver replays the scalar float operations per row — but the
    experiments harness, which replays millions of checkpoints per
    figure, pays for one vectorised solve per run instead.
    ``beta_snapshots`` is the preallocated ``(checkpoints, EXPONENT_AXIS)``
    int64 matrix the replay loop filled row by row.
    """
    if not alpha_snapshots:
        return [], 0
    import numpy as np

    from repro.estimation.batch import solve_ml_equations

    shift = 64 - params.p
    alpha = np.array([a / (1 << shift) for a in alpha_snapshots])
    solution = solve_ml_equations(alpha, beta_snapshots)
    estimates = params.m * solution.nu
    estimates = np.where(
        estimates > 0.0, estimates * bias_factor, estimates
    )
    return estimates.tolist(), int(solution.iterations.max())


def bulk_final_registers(
    schedule: EventSchedule, params: ExaLogLogParams
) -> list[int]:
    """Final register state of a schedule via the bulk backend.

    Event schedules are ``(register, update value)`` pairs, exactly what
    the backend's vectorised fold consumes — so when only the end state
    matters (no per-checkpoint estimates), the whole replay loop reduces
    to one fold. Identical to ``replay(...).registers``.
    """
    from repro.backends import exaloglog_registers_from_pairs, supports_int64_registers

    if len(schedule) == 0 or not supports_int64_registers(params):
        from repro.core.register import update as update_register

        registers = [0] * params.m
        for i, k in zip(schedule.registers.tolist(), schedule.values.tolist()):
            registers[i] = update_register(registers[i], k, params.d)
        return registers
    return exaloglog_registers_from_pairs(
        schedule.registers, schedule.values, params
    ).tolist()


def replay(
    schedule: EventSchedule,
    params: ExaLogLogParams,
    checkpoints: Sequence[float],
    bias_correction: bool = True,
) -> ReplayResult:
    """Replay a (state-change-filtered) schedule, sampling at checkpoints."""
    d = params.d
    m = params.m
    shift = 64 - params.p
    phis = phi_table(params)
    omegas = omega_scaled_table(params)
    rhos_scaled = [0] + [
        1 << (shift - phis[k]) for k in range(1, params.max_update_value + 1)
    ]
    bias_factor = bias_correction_factor(params) if bias_correction else 1.0

    registers = [0] * m
    alpha_scaled = m << shift  # every register starts with omega(0) = 1
    beta = [0] * EXPONENT_AXIS
    martingale = 0.0
    alpha_norm = float(m << shift)  # mu = alpha_scaled / alpha_norm

    import numpy as np

    checkpoints = sorted(float(c) for c in checkpoints)
    n_checkpoints = len(checkpoints)
    alpha_snapshots: list[int] = []
    # One row per checkpoint (not a Python list copy each): the beta
    # coefficient vector has fixed length, so snapshots go straight into
    # the matrix the batched end-of-replay solve consumes.
    beta_snapshots = np.zeros((n_checkpoints, EXPONENT_AXIS), dtype=np.int64)
    martingale_estimates: list[float] = []
    checkpoint_index = 0

    times = schedule.times.tolist()
    event_registers = schedule.registers.tolist()
    event_values = schedule.values.tolist()

    for position in range(len(times)):
        time = times[position]
        while checkpoint_index < n_checkpoints and checkpoints[checkpoint_index] < time:
            alpha_snapshots.append(alpha_scaled)
            beta_snapshots[checkpoint_index] = beta
            martingale_estimates.append(martingale)
            checkpoint_index += 1

        i = event_registers[position]
        k = event_values[position]
        r = registers[i]
        u = r >> d

        if k < u:
            position_bit = d - u + k
            if position_bit < 0 or (r >> position_bit) & 1:
                continue  # forgotten or already-set value: no state change
            # Martingale increments before the state change (Algorithm 4).
            if alpha_scaled > 0:
                martingale += alpha_norm / alpha_scaled
            registers[i] = r | (1 << position_bit)
            alpha_scaled -= rhos_scaled[k]
            beta[phis[k]] += 1
        elif k > u:
            if alpha_scaled > 0:
                martingale += alpha_norm / alpha_scaled
            delta_alpha = omegas[k] - omegas[u]
            # Values in the new window that have never occurred.
            a = max(k - d, u + 1)
            b = k - 1
            if a <= b:
                delta_alpha += omegas[a - 1] - omegas[b]
            beta[phis[k]] += 1
            if u >= 1:
                if u < k - d:
                    beta[phis[u]] -= 1  # the old maximum drops out
                # Old window values that drop out of the new window.
                lo = max(1, u - d)
                hi = min(u - 1, k - d - 1)
                if lo <= hi:
                    range_sum = omegas[lo - 1] - omegas[hi]
                    set_sum = 0
                    width = hi - lo + 1
                    bits = (r >> (d - u + lo)) & ((1 << width) - 1)
                    while bits:
                        lsb = bits & -bits
                        v = lo + lsb.bit_length() - 1
                        beta[phis[v]] -= 1
                        set_sum += rhos_scaled[v]
                        bits ^= lsb
                    # Dropped never-occurred values stop contributing alpha.
                    delta_alpha -= range_sum - set_sum
            registers[i] = (k << d) + (((1 << d) + (r & ((1 << d) - 1))) >> (k - u))
            alpha_scaled += delta_alpha
        # k == u cannot occur (events are first occurrences).

    while checkpoint_index < n_checkpoints:
        alpha_snapshots.append(alpha_scaled)
        beta_snapshots[checkpoint_index] = beta
        martingale_estimates.append(martingale)
        checkpoint_index += 1

    ml_estimates, newton_max = _solve_checkpoints(
        alpha_snapshots, beta_snapshots, params, bias_factor
    )

    return ReplayResult(
        checkpoints=list(checkpoints),
        ml_estimates=ml_estimates,
        martingale_estimates=martingale_estimates,
        registers=registers,
        alpha_scaled=alpha_scaled,
        beta=beta,
        newton_iterations_max=newton_max,
    )

