"""Backward equation solvers for nonlinear expectations of terminal claims.

The value solves a semilinear parabolic equation in log-state coordinates:

    u_t + 0.5 * sv^2 u_xx + mv u_x + g(t, u, sv * u_x) = 0,   u(T, x) = payoff(e^x)

with sv(t, x) = vol(t, s)/s and mv(t, x) = drift(t, s)/s - 0.5 * sv^2 at
s = e^x.  The driver g(t, y, z) with g = +k|z| gives the upper expectation,
g = -k|z| the lower one, and a linear driver nu * z reproduces the single
measure whose drift distortion is nu.  These three kinds (Generator) are the
only drivers.

solve_fd marches an explicit scheme backward from the terminal condition,
one fused three-point stencil per step, for one driver or for several at
once: the drivers of one grid share the march, each as one row of its
buffers, so the upper, lower and linear drivers of a claim cost one pass.
solve_tree is an independent recombining-lattice oracle for proportional
(GBM) coefficients.  Every solve streams the extreme of z on the central
band that z_sign_check reads, so no caller has to store surfaces for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .choquet import Payoff
from .errors import GridTooCoarseError, InvalidGeneratorError
from .paths import MarketModel

DEFAULT_NODES = 801
DEFAULT_TIME_STEPS = 2000
# The grid's half-width in reference standard deviations, and the share of
# the explicit scheme's stable step that each step takes.
WIDTH_SDS = 6.0
STABILITY_SAFETY = 0.9
# The explicit march needs a step count that grows like 1/sigma^2; solve_fd
# refuses grids whose stable count exceeds this instead of marching for hours.
MAX_TIME_STEPS = 1_000_000
# Fraction of space nodes, centred, on which z_sign_check reads z, and the
# slack, per unit of s0, that it allows z on the wrong side of 0.
Z_SIGN_BAND = 0.9
Z_SIGN_SLACK = 1e-6
# The march's buffer rows each start on a page of this many bytes.
PAGE_BYTES = 4096


@dataclass(frozen=True)
class Generator:
    """Driver g(t, y, z) of the backward equation.

    Kinds: "linear" is nu * z, a single measure change; "abs_upper" is
    +k|z| and "abs_lower" is -k|z|, the upper and lower expectations over
    drift distortions bounded by k.  Each is one coefficient times z or
    |z|, so it vanishes at z = 0 (constants are fixed points of the
    expectation) and its Lipschitz constant in z is |coefficient|.
    """

    kind: str
    nu: float = 0.0
    k: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "linear":
            if not np.isfinite(self.nu):
                raise InvalidGeneratorError(f"linear coefficient must be finite, got {self.nu}")
        elif self.kind in ("abs_upper", "abs_lower"):
            if not np.isfinite(self.k) or self.k < 0.0:
                raise InvalidGeneratorError(f"bound k must be >= 0, got {self.k}")
        else:
            raise InvalidGeneratorError(f"unknown generator kind {self.kind!r}")

    @classmethod
    def linear(cls, nu: float) -> "Generator":
        return cls(kind="linear", nu=float(nu))

    @classmethod
    def abs_upper(cls, k: float) -> "Generator":
        return cls(kind="abs_upper", k=float(k))

    @classmethod
    def abs_lower(cls, k: float) -> "Generator":
        return cls(kind="abs_lower", k=float(k))

    @property
    def coefficient(self) -> float:
        """The driver is this times z ("linear") or |z| ("abs_*")."""
        return {"linear": self.nu, "abs_upper": self.k, "abs_lower": -self.k}[self.kind]

    @property
    def lipschitz_z(self) -> float:
        return abs(self.coefficient)

    def g(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.coefficient * (z if self.kind == "linear" else np.abs(z))


@dataclass(frozen=True)
class GridSolution:
    """Output of the finite-difference march.

    `space_grid` holds log-state nodes; surfaces have one row per time level
    (row 0 is t = 0) and one column per node.  `z_surface` is the volatility
    times the state-derivative of the value, the integrand-of-noise term of
    the backward equation.  Surfaces are None unless store_surfaces was set.

    `z_extreme` is kept whether or not surfaces are stored: the min of z for
    an increasing payoff, the max for a decreasing one, over every row before
    the terminal one and the central Z_SIGN_BAND of the nodes.  It equals that
    extreme of the stored `z_surface` exactly, and is NaN for payoffs
    without a declared monotonicity.

    A solve of one Generator holds floats and (time, node) surfaces.  A solve
    of a sequence of drivers holds `y0` and `z_extreme` as arrays in driver
    order and surfaces of shape (driver, time, node); `driver(i)` is the
    solution of driver i alone.
    """

    model: MarketModel
    payoff: Payoff
    space_grid: np.ndarray
    dt: float
    time_steps: int
    y0: float | np.ndarray
    z_extreme: float | np.ndarray
    value_surface: Optional[np.ndarray] = None
    z_surface: Optional[np.ndarray] = None

    def driver(self, i: int) -> "GridSolution":
        """The solution of driver i of a solve of several drivers."""
        return replace(
            self,
            y0=float(self.y0[i]),
            z_extreme=float(self.z_extreme[i]),
            value_surface=None if self.value_surface is None else self.value_surface[i],
            z_surface=None if self.z_surface is None else self.z_surface[i],
        )


def _log_coefficients(model: MarketModel):
    """Return vectorised (mv, sv, constants) at the states s = e^x of log-state
    nodes: sv(t, s) = vol(t, s) / s and mv(t, s, half_var) = drift(t, s) / s -
    half_var, where the caller passes half_var = 0.5 * sv * sv from its own sv,
    so one vol call serves both.  For GBM `constants` is the pair of scalars
    (mv, sv) the functions fill their arrays with; otherwise None."""
    if model.gbm_constants is not None:
        mu, sigma = model.gbm_constants
        mv_const = mu - 0.5 * sigma * sigma

        def mv(t: float, s: np.ndarray, half_var: np.ndarray) -> np.ndarray:
            return np.full_like(s, mv_const)

        def sv(t: float, s: np.ndarray) -> np.ndarray:
            return np.full_like(s, sigma)

        return mv, sv, (mv_const, sigma)

    def sv(t: float, s: np.ndarray) -> np.ndarray:
        return np.asarray(model.vol(t, s), dtype=float) / s

    def mv(t: float, s: np.ndarray, half_var: np.ndarray) -> np.ndarray:
        return np.asarray(model.drift(t, s), dtype=float) / s - half_var

    return mv, sv, None


def _log_grid(model: MarketModel, sv, horizon: float, nodes: int):
    """(x0, x, dx): `nodes` log-state nodes centred at x0 = log(s0), WIDTH_SDS
    reference standard deviations sigma_ref = sv(0, e^x0) to each side;
    sigma_ref is floored to 1e-8 when not positive.  Raises ValueError when
    the nodes are not distinct in float64."""
    x0 = math.log(model.s0)
    sigma_ref = float(sv(0.0, np.exp(np.array([x0])))[0])
    if sigma_ref <= 0.0:
        sigma_ref = 1e-8
    half = WIDTH_SDS * sigma_ref * math.sqrt(horizon)
    x = x0 + np.linspace(-half, half, nodes)
    dx = x[1] - x[0]
    if not dx > 0.0:
        raise ValueError(f"the log grid collapses: {nodes} nodes within {half:.3g} of "
                         f"log(s0) = {x0:.6g} are not distinct in float64")
    return x0, x, dx


def _stable_steps(mv, sv, states: np.ndarray, dx: float, horizon: float,
                  lipschitz_z: float) -> int:
    """Smallest explicit-scheme step count stable on the grid with nodes e^x = states.

    The binding constraint is dt <= STABILITY_SAFETY * dx^2 / max(sv)^2; an
    advection bound dt <= STABILITY_SAFETY * dx / max(|mv| + L * sv) covers
    degenerate diffusion.
    """
    sv_max = 0.0
    adv_max = 0.0
    for t in np.linspace(0.0, horizon, 5):
        sv_t = np.asarray(sv(float(t), states), dtype=float)
        mv_t = np.abs(np.asarray(mv(float(t), states, 0.5 * sv_t * sv_t), dtype=float))
        sv_t = np.abs(sv_t)
        sv_max = max(sv_max, float(sv_t.max()))
        adv_max = max(adv_max, float((mv_t + lipschitz_z * sv_t).max()))
    dt_bounds = []
    # Squares of a tiny dx or sigma can underflow to 0; the result is then
    # rejected below instead of warned about.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if sv_max > 0.0:
            dt_bounds.append(STABILITY_SAFETY * dx * dx / (sv_max * sv_max))
        if adv_max > 0.0:
            dt_bounds.append(STABILITY_SAFETY * dx / adv_max)
        if not dt_bounds:
            return 1
        steps = horizon / min(dt_bounds)
    if not math.isfinite(steps):
        raise ValueError(f"the stable time step count is not finite in float64 "
                         f"(dx = {dx:.3g}, max sigma = {sv_max:.3g})")
    return max(1, int(math.ceil(steps)))


def _page_rows(count: int, width: int) -> np.ndarray:
    """A (count, width) float view of one block whose rows each start on a
    page, the stride between rows padded to whole pages.  The march's speed
    then does not depend on where the heap puts its buffers."""
    per_page = PAGE_BYTES // 8
    stride = -(-width // per_page) * per_page
    block = np.empty(count * stride + per_page)
    start = (-block.ctypes.data % PAGE_BYTES) // 8
    return block[start:start + count * stride].reshape(count, stride)[:, :width]


def minimal_time_steps(
    model: MarketModel,
    horizon: float,
    nodes: int = DEFAULT_NODES,
    lipschitz_z: float = 0.0,
) -> int:
    """Smallest explicit-scheme step count stable on the grid solve_fd builds."""
    mv, sv, _ = _log_coefficients(model)
    _, x, dx = _log_grid(model, sv, horizon, nodes)
    return _stable_steps(mv, sv, np.exp(x), dx, horizon, lipschitz_z)


def solve_fd(
    model: MarketModel,
    payoff: Payoff,
    generator: Generator | Sequence[Generator],
    horizon: float,
    nodes: int = DEFAULT_NODES,
    time_steps: int = DEFAULT_TIME_STEPS,
    substep: bool = True,
    store_surfaces: bool = False,
) -> GridSolution:
    """March the semilinear equation backward on an explicit log-space grid.

    The grid is centred at log(s0) with half-width WIDTH_SDS reference
    standard deviations.  When the requested `time_steps` violates the
    stability bound, the scheme substeps to the minimal stable count by
    default; with substep=False it raises GridTooCoarseError naming that
    count instead.  A requested or stable count above MAX_TIME_STEPS raises
    ValueError naming it before any work.  Boundary rows extrapolate
    linearly (zero curvature).

    `generator` is one driver or a sequence of drivers, which march the same
    grid in one pass and give one GridSolution with a row per driver (see
    GridSolution).  Every driver marches the step count of the most
    demanding one, which is each driver's own count whenever the diffusion
    bound binds, as it does unless sigma is tiny.

    The z-sign extreme is folded in as the march goes.  With a constant
    sv > 0 and a band that leaves out the boundary columns, each step folds
    the d = up - dn its stencil reads anyway, and the extreme is mapped
    through sv * (d / (2 * dx)) once at the end; otherwise z is recomputed
    on the band of each new row.

    The march works in buffers set up once per solve.  The drivers' value
    rows lie end to end in one flat row, so each elementwise operation is
    one call for all of them, and a step is one fused three-point stencil
    with a coefficient row per term.  The rows are filled once per solve
    for GBM; otherwise once per time level, from one vol and one drift call
    shared by every driver.  Every product and sum keeps its operand order,
    so each value is bitwise that of a lone driver's march that allocates
    fresh arrays at every step (tested).
    """
    drivers = (generator,) if isinstance(generator, Generator) else tuple(generator)
    if not drivers:
        raise ValueError("solve_fd needs at least one driver")
    if nodes < 5:
        raise ValueError(f"nodes must be >= 5, got {nodes}")
    if not 1 <= time_steps <= MAX_TIME_STEPS:
        raise ValueError(f"time_steps must be in [1, MAX_TIME_STEPS = {MAX_TIME_STEPS}], "
                         f"got {time_steps}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")

    mv_fn, sv_fn, constants = _log_coefficients(model)
    x0, x, dx = _log_grid(model, sv_fn, horizon, nodes)
    states = np.exp(x)
    # The stable count grows with the Lipschitz constant, so the largest
    # constant gives the largest of the drivers' own counts.
    lipschitz_z = max(gen.lipschitz_z for gen in drivers)
    m_min = _stable_steps(mv_fn, sv_fn, states, dx, horizon, lipschitz_z)
    if m_min > MAX_TIME_STEPS:
        raise ValueError(
            f"explicit scheme needs {m_min} time steps on {nodes} nodes, "
            f"above the limit of {MAX_TIME_STEPS}; raise sigma or use fewer nodes"
        )
    if time_steps < m_min:
        if not substep:
            raise GridTooCoarseError(
                f"explicit scheme unstable: {time_steps} time steps on {nodes} nodes; "
                f"minimal admissible time_steps is {m_min}",
                minimal_time_steps=m_min,
            )
        m = m_min
    else:
        m = time_steps
    dt = horizon / m

    u = payoff.map(states)

    # The march's arrays, allocated once.  Each step is the fused stencil
    #   u' = ((a_mid * mid + b_up * up) + b_dn * dn) + gamma * |up - dn|
    # with r2 = dt / (dx * dx), r1 = dt / (2 * dx), a = r2 * (0.5 * sv * sv),
    # b = r1 * mv + (r1 * nu) * sv, a_mid = 1 - 2 * a, b_up = a + b,
    # b_dn = a - b and gamma = (r1 * c) * |sv|, where a driver is nu * z
    # (c = 0) or c * |z| (nu = 0).  The operand order must not change: it
    # is what keeps every row bitwise.
    count = len(drivers)
    width = count * nodes
    span = width - 2
    r2, r1, two_dx = dt / (dx * dx), dt / (2.0 * dx), 2.0 * dx
    # Driver j's values are row[j * nodes:(j + 1) * nodes], so mid = row[1:-1]
    # puts its interior at [j * nodes, j * nodes + nodes - 2) of each
    # `span`-long buffer.  Buffers hold `width` entries so that a (driver,
    # node) view exists; all are rows of one page-aligned block.
    rows, coeffs, (d_buf, work) = np.split(_page_rows(8, width), (2, 6))
    rows[0].reshape(count, nodes)[:] = u
    cur, nxt = ((row, row[2:], row[1:-1], row[:-2]) for row in rows)
    # Where two drivers' rows meet, the stencil reads both.  Those entries
    # land on boundary nodes, which the extrapolation overwrites; their
    # coefficients stay 0, so no product there can overflow.
    coeffs.fill(0.0)
    a_mid, b_up, b_dn, gamma = coeffs[:, :span]
    coeff_rows = coeffs.reshape(4, count, nodes)
    a_mid_rows, b_up_rows, b_dn_rows, gamma_rows = coeff_rows[:, :, :nodes - 2]
    d, term = d_buf[:span], work[:span]
    # The z of a new row is written where the step's products were, its
    # interior from each driver's own entries of d.
    z_full = work.reshape(count, nodes)
    z_ends, d_rows = z_full[:, ::nodes - 1], d_buf.reshape(count, nodes)[:, :-2]
    # Each driver's boundary nodes and the two nodes each extrapolates from.
    ends = np.arange(0, width, nodes)[:, None] + np.array([0, nodes - 1])
    inner, outer = ends + np.array([1, -1]), ends + np.array([2, -2])
    # r1 * nu and r1 * c of each driver, and each run of neighbouring |z|
    # rows, which takes its gamma term at once.
    linear = np.array([[gen.kind == "linear"] for gen in drivers])
    coefficient = np.array([[gen.coefficient] for gen in drivers])
    r1_nu_c = r1 * np.stack([np.where(linear, coefficient, 0.0),
                             np.where(linear, 0.0, coefficient)])
    runs = [slice(js[0] * nodes, js[-1] * nodes + nodes - 2)
            for is_abs, group in itertools.groupby(range(count), key=lambda j: not linear[j, 0])
            if is_abs for js in [list(group)]]

    def fill(t: float, sv_all: float | np.ndarray) -> None:
        """Coefficient rows at time t from sv on every node (a GBM scalar)."""
        sv = sv_all if constants is not None else sv_all[1:-1]
        half_var = 0.5 * sv * sv
        a = r2 * half_var
        gamma_rows[:] = np.abs(sv)
        b_dn_rows[:] = sv
        b_up_rows[:] = r1 * (constants[0] if constants is not None
                             else mv_fn(t, states[1:-1], half_var))
        a_mid_rows[:] = a  # a_mid holds a, and b_dn holds b, until the last line
        np.multiply(r1_nu_c, coeff_rows[2:], out=coeff_rows[2:])
        np.add(b_up, b_dn, out=b_dn)
        np.add(a_mid, b_dn, out=b_up)
        np.subtract(a_mid, b_dn, out=b_dn)
        a_mid_rows[:] = 1.0 - 2.0 * a

    def z_row(sv: float | np.ndarray, row: np.ndarray) -> None:
        """z of each driver's row from sv on every node and the row's
        differences d = up - dn, written into z_full."""
        by_driver = row.reshape(count, nodes)
        np.divide(d_rows, two_dx, out=z_full[:, 1:-1])
        np.subtract(by_driver[:, 1], by_driver[:, 0], out=z_full[:, 0])
        np.subtract(by_driver[:, -1], by_driver[:, -2], out=z_full[:, -1])
        np.divide(z_ends, dx, out=z_ends)
        np.multiply(sv, z_full, out=z_full)

    # sv on every node of the level that cur holds: a constant for GBM,
    # else one vol call per level at t = level * dt, which serves both the
    # level's z and the coefficients of the step that reads the level.
    sv_level = constants[1] if constants is not None else sv_fn(m * dt, states)
    value_surface = np.empty((count, m + 1, nodes)) if store_surfaces else None
    z_surface = np.empty((count, m + 1, nodes)) if store_surfaces else None
    # Running elementwise extreme on the band of every row before the
    # terminal one; payoffs without monotonicity track nothing.
    fold = {"increasing": np.minimum, "decreasing": np.maximum}.get(payoff.monotonicity)
    margin = int(round(0.5 * (1.0 - Z_SIGN_BAND) * nodes))
    hi = nodes - margin
    if fold is not None:
        track = np.full((count, hi - margin), np.inf if fold is np.minimum else -np.inf)
    fold_d = fold is not None and constants is not None and sv_level > 0.0 and margin >= 1
    recompute_z = fold is not None and not fold_d
    d_band, z_full_band = d_buf.reshape(count, nodes)[:, margin - 1:hi - 1], z_full[:, margin:hi]

    for step in range(m, -1, -1):  # cur holds level `step`; its d and z, then the step down
        _, up, mid, dn = cur
        np.subtract(up, dn, out=d)
        if store_surfaces or recompute_z:
            z_row(sv_level, cur[0])
        if store_surfaces:
            value_surface[:, step] = cur[0].reshape(count, nodes)
            z_surface[:, step] = z_full
        if recompute_z and step < m:
            fold(track, z_full_band, out=track)
        if fold_d and step < m:
            fold(track, d_band, out=track)
        if step == 0:
            break
        if step == m or constants is None:
            fill(step * dt, sv_level)
        row, _, row_mid, _ = nxt
        np.multiply(a_mid, mid, out=row_mid)
        np.multiply(b_up, up, out=term)
        np.add(row_mid, term, out=row_mid)
        np.multiply(b_dn, dn, out=term)
        np.add(row_mid, term, out=row_mid)
        for part in runs:
            np.abs(d[part], out=term[part])
            np.multiply(gamma[part], term[part], out=term[part])
            np.add(row_mid[part], term[part], out=row_mid[part])
        row[ends] = 2.0 * row[inner] - row[outer]
        cur, nxt = nxt, cur
        if constants is None:
            sv_level = sv_fn((step - 1) * dt, states)

    u = cur[0]
    u_rows = u.reshape(count, nodes)
    if fold_d:
        track = sv_level * (track / two_dx)

    if not np.all(np.isfinite(u)):
        raise GridTooCoarseError(
            f"explicit march diverged on {nodes} nodes x {m} steps; "
            f"minimal admissible time_steps is {m_min}",
            minimal_time_steps=m_min,
        )

    if nodes % 2 == 1:
        y0 = u_rows[:, (nodes - 1) // 2].copy()
    else:
        y0 = np.array([np.interp(x0, x, values) for values in u_rows])

    solution = GridSolution(
        model=model,
        payoff=payoff,
        space_grid=x,
        dt=dt,
        time_steps=m,
        y0=y0,
        z_extreme=(np.full(count, math.nan) if fold is None
                   else np.array([fold.reduce(band) for band in track])),
        value_surface=value_surface,
        z_surface=z_surface,
    )
    return solution.driver(0) if isinstance(generator, Generator) else solution


def solve_tree(
    model: MarketModel,
    payoff: Payoff,
    generator: Generator,
    horizon: float,
    steps: int,
) -> float:
    """Recombining-lattice value at time zero; an oracle independent of solve_fd.

    Only proportional (GBM) coefficients are supported.  Each backward node
    averages its children and adds dt * g evaluated at the lattice estimate
    of z, the scaled child difference.
    """
    if model.gbm_constants is None:
        raise ValueError("tree oracle requires proportional (GBM) coefficients")
    if steps < 8:
        raise ValueError(f"steps must be >= 8 for the lattice oracle, got {steps}")
    mu, sigma = model.gbm_constants
    dt = horizon / steps
    sq = math.sqrt(dt)
    drift = (mu - 0.5 * sigma * sigma) * dt
    x0 = math.log(model.s0)

    j = np.arange(steps + 1)
    x_terminal = x0 + steps * drift + sigma * sq * (2.0 * j - steps)
    y = payoff.map(np.exp(x_terminal))
    for i in range(steps - 1, -1, -1):
        t = i * dt
        y_dn = y[:-1]
        y_up = y[1:]
        mid = 0.5 * (y_up + y_dn)
        if sigma > 0.0:
            z = (y_up - y_dn) / (2.0 * sq)
        else:
            z = np.zeros_like(mid)
        y = mid + dt * generator.g(t, mid, z)
    return float(y[0])


@dataclass(frozen=True)
class ZSignReport:
    status: str  # "pass" | "fail" | "not_applicable"
    monotonicity: str
    extreme: float
    threshold: float
    band: float

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def z_sign_check(solution: GridSolution) -> ZSignReport:
    """Check the sign of z implied by the payoff's monotonicity.

    With threshold = Z_SIGN_SLACK * s0, increasing payoffs must keep
    z >= -threshold and decreasing payoffs z <= +threshold on the central
    Z_SIGN_BAND of space nodes at all times before the terminal one.  The
    extreme is the one solve_fd streamed into `solution.z_extreme`, so
    stored surfaces are not needed; a solve of several drivers is checked
    one driver at a time, as `solution.driver(i)`.  Payoffs without
    declared monotonicity yield a not_applicable report.
    """
    mono = solution.payoff.monotonicity
    thr = Z_SIGN_SLACK * solution.model.s0
    extreme = solution.z_extreme
    if mono == "none":
        status = "not_applicable"
    elif mono == "increasing":
        status = "pass" if extreme >= -thr else "fail"
    else:
        status = "pass" if extreme <= thr else "fail"
    return ZSignReport(status=status, monotonicity=mono, extreme=extreme,
                       threshold=thr, band=Z_SIGN_BAND)
