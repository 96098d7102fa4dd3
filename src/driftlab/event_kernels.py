"""Pointwise kernels for totally inaccessible jump events.

Totally inaccessible jump times are degenerate on a finite tick grid, so
their per-event formulas are exposed here as pure kernels over explicit
event data instead of as process operations: an event carries cell
probabilities under both conditionings, with a scale factor per cell.
Every kernel is exact.  (Accessible jumps need no kernel: see
viability._closed_form_connector.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataInvariantViolated, DimensionMismatch
from .rational import ONE, ZERO, Q, _dot


@dataclass(frozen=True)
class InaccessibleEventData:
    """One thin jump event split into cells.

    q and qbar are the cell probabilities under the two conditionings,
    jump_scale the (nonzero) driving jump scale per cell, base_coeff and
    pair_rows the integrand coefficients per cell, drive_mean the
    base-conditional mean jump row, phi the multiplier row.
    """
    q: tuple
    qbar: tuple
    jump_scale: tuple
    base_coeff: tuple
    pair_rows: tuple   # one vector per cell
    drive_mean: tuple
    phi: tuple

    def scaled_row(self, k: int) -> tuple:
        a = self.jump_scale[k]
        return tuple(a * z for z in self.pair_rows[k])


def validate_inaccessible(data: InaccessibleEventData) -> None:
    cells = len(data.q)
    if not (len(data.qbar) == len(data.jump_scale) == len(data.base_coeff)
            == len(data.pair_rows) == cells):
        raise DimensionMismatch("cell counts differ")
    width = len(data.phi)
    if len(data.drive_mean) != width:
        raise DimensionMismatch("mean row width differs from multiplier width")
    for row in data.pair_rows:
        if len(row) != width:
            raise DimensionMismatch("pair row width differs from multiplier width")
    if sum(data.q, ZERO) > ONE or sum(data.qbar, ZERO) > ONE:
        raise DataInvariantViolated("cell probabilities exceed one")
    tilt = ONE + _dot(data.phi, data.drive_mean)
    if tilt <= ZERO:
        raise DataInvariantViolated("mean tilt must stay positive")
    for k in range(cells):
        if data.q[k] < ZERO or data.qbar[k] < ZERO:
            raise DataInvariantViolated("negative probability", cell=k)
        if data.jump_scale[k] == ZERO:
            raise DataInvariantViolated("jump scale vanishes", cell=k)
        lhs = (ONE + _dot(data.phi, data.scaled_row(k))) * data.q[k]
        if lhs != tilt * data.qbar[k]:
            raise DataInvariantViolated("cell tilt identity failed", cell=k)


def inaccessible_jump_value(data: InaccessibleEventData, k: int) -> Q:
    """Integrand value at cell k: (J_k + phi.zeta_k) / (1 + phi.zeta_k a_k).

    Zero when the denominator vanishes; by the cell tilt identity that can
    only happen on cells of zero enlarged probability.
    """
    if not 0 <= k < len(data.q):
        raise DimensionMismatch("cell out of range")
    denom = ONE + _dot(data.phi, data.scaled_row(k))
    if denom == ZERO:
        return ZERO
    return (data.base_coeff[k] + _dot(data.phi, data.pair_rows[k])) / denom


def reduced_equation_holds(data: InaccessibleEventData, k: int) -> bool:
    """(1 + phi.mean) * value * qbar_k == (J_k + phi.zeta_k) * q_k."""
    value = inaccessible_jump_value(data, k)
    tilt = ONE + _dot(data.phi, data.drive_mean)
    rhs = (data.base_coeff[k] + _dot(data.phi, data.pair_rows[k])) * data.q[k]
    return tilt * value * data.qbar[k] == rhs


def quotient_identity_holds(data: InaccessibleEventData, k: int) -> bool:
    """value * a_k == (d_k + phi.l_k) / (1 + phi.l_k) with d_k = J_k * a_k."""
    value = inaccessible_jump_value(data, k)
    l_k = data.scaled_row(k)
    denom = ONE + _dot(data.phi, l_k)
    if denom == ZERO:
        return value == ZERO
    d_k = data.base_coeff[k] * data.jump_scale[k]
    return value * data.jump_scale[k] * denom == d_k + _dot(data.phi, l_k)
