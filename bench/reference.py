"""Independent model of the planner's link budgets, used to check its outputs.

Everything here is written from the README's equations and defaults, not
from the package: the benchmark holds its own copy of every scenario
parameter it hands the program (as config text or flags) and recomputes
SINR with plain numpy and `math`.  `mp_spot_checks` adds 50-digit mpmath
evaluations at a few points so the float reference is itself checked.

Tolerances:
- SINR and edge statistics in dB: absolute difference at most DB_TOL.
- Linear powers: relative difference at most REL_TOL.  The reflected
  power may also carry an absolute error of COS_ABS_TOL in each incidence
  cosine (`irs_rel_tol`): evaluating the README's cos(theta) through the
  angle, as cos(acos(c)), loses that much, which is a large relative error
  near grazing incidence.
- `-inf` (the zero-signal sentinel) must appear exactly where the
  reference signal is zero, and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

C = 299792458.0
DB_TOL = 1e-9
REL_TOL = 1e-12
COS_ABS_TOL = 1e-15  # about 4.5 ulp of pi/2


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Params:
    """One scenario as the benchmark describes it; README defaults."""

    frequency: float = 130e9
    noise: float = 1e-12
    alpha_micro: float = 3.0
    alpha_macro: float = 4.0
    micro: tuple = (0.0, 0.0, 200.0, 200.0)  # origin_x, origin_y, width, depth
    macro_power: float = 50.0
    macro_bs: tuple = (500.0, 500.0, 10.0)
    bs: tuple = (100.0, 100.0, 5.0)
    power_conv: float = 10.0
    power_irs: float = 1.0
    irs: tuple = (100.0, 100.0, 6.0)
    elements: int = 128
    reflection: float = 0.9
    gain_tx_db: float = 20.0
    gain_rx_db: float = 15.0
    theta_t: float = math.pi / 4
    theta_r: float = math.pi / 4
    normal: tuple | None = None  # set: geometric angles from this unit normal
    user_height: float = 1.5
    resolution: float = 1.0
    config_lines: tuple = field(default=(), compare=False)

    @property
    def wavelength(self) -> float:
        return C / self.frequency

    def config_text(self) -> str:
        return "".join(line + "\n" for line in self.config_lines)

    def cascade_constant(self) -> float:
        """Everything in the reflected-path budget except angles and hops."""
        wl = self.wavelength
        d = wl / 2.0  # element edge: half a wavelength by default
        g_sc = 4.0 * math.pi * d * d / wl ** 2
        gains = 10.0 ** (self.gain_tx_db / 10.0) * 10.0 ** (self.gain_rx_db / 10.0)
        m2n2 = float(self.elements) ** 4
        return (self.power_irs * wl ** 2 * self.reflection ** 2 * g_sc * gains
                * d * d * m2n2 / (64.0 * math.pi ** 3))


def geometric(params: Params, normal: tuple) -> Params:
    """The same scenario with per-endpoint angles from a panel normal."""
    n = np.asarray(normal, dtype=float)
    n = tuple(float(v) for v in n / math.sqrt(float(n @ n)))
    line = "irs_normal = " + ",".join(repr(v) for v in n)
    return replace(params, normal=n, config_lines=params.config_lines + (line,))


def _axes(params: Params) -> tuple[np.ndarray, np.ndarray]:
    res = params.resolution
    ox, oy, w, d = params.micro
    xs = np.array([ox + i * res for i in range(int(math.floor(w / res)) + 1)])
    ys = np.array([oy + j * res for j in range(int(math.floor(d / res)) + 1)])
    return xs, ys


def lattice(params: Params):
    """Row-major lattice coordinates (x, y) and its shape (nx, ny)."""
    xs, ys = _axes(params)
    return np.tile(xs, ys.size), np.repeat(ys, xs.size), xs.size, ys.size


def perimeter(params: Params):
    """The lattice's boundary points (x, y), without building the lattice."""
    xs, ys = _axes(params)
    inner = ys[1:-1]
    x = np.concatenate([xs, xs, np.full(inner.size, xs[0]), np.full(inner.size, xs[-1])])
    y = np.concatenate([np.full(xs.size, ys[0]), np.full(xs.size, ys[-1]), inner, inner])
    return x, y


def _dist(x, y, z, p) -> np.ndarray:
    return np.sqrt((x - p[0]) ** 2 + (y - p[1]) ** 2 + (z - p[2]) ** 2)


def direct_power(params: Params, power: float, alpha: float, d) -> np.ndarray:
    return power * params.wavelength ** 2 / (16.0 * math.pi ** 2 * np.power(d, alpha))


def interference(params: Params, x, y, z) -> np.ndarray:
    return direct_power(params, params.macro_power, params.alpha_macro,
                        _dist(x, y, z, params.macro_bs))


def conventional_signal(params: Params, x, y, z) -> np.ndarray:
    return direct_power(params, params.power_conv, params.alpha_micro, _dist(x, y, z, params.bs))


def cascade_cosines(params: Params, x, y, z):
    """cos(theta_t) and cos(theta_r) per receiver; zero where not reachable.

    Also returns the receiver-side normal projection (before clipping) so
    callers can keep away from points on the panel plane.
    """
    if params.normal is None:
        cr = np.full(np.shape(x), math.cos(params.theta_r))
        return math.cos(params.theta_t), cr, np.ones(np.shape(x))
    n = params.normal
    p = params.irs
    r1 = math.dist(params.bs, p)
    ct = sum((params.bs[k] - p[k]) * n[k] for k in range(3)) / r1
    proj = (x - p[0]) * n[0] + (y - p[1]) * n[1] + (z - p[2]) * n[2]
    cr = np.maximum(proj, 0.0) / _dist(x, y, z, p)
    return max(ct, 0.0), cr, proj


def irs_signal(params: Params, x, y, z) -> np.ndarray:
    ct, cr, _ = cascade_cosines(params, x, y, z)
    r1 = math.dist(params.bs, params.irs)
    r2 = _dist(x, y, z, params.irs)
    return params.cascade_constant() * ct * cr / (r1 * r1 * r2 * r2)


def irs_rel_tol(params: Params, x, y, z) -> np.ndarray:
    """Relative tolerance of the reflected power at each receiver."""
    ct, cr, _ = cascade_cosines(params, x, y, z)
    with np.errstate(divide="ignore"):
        return REL_TOL + COS_ABS_TOL * (1.0 / ct + 1.0 / cr)


def sinr_db(params: Params, signal, x, y, z) -> np.ndarray:
    linear = signal / (interference(params, x, y, z) + params.noise)
    with np.errstate(divide="ignore"):
        return np.where(linear > 0.0, 10.0 * np.log10(linear), -math.inf)


def edge_summary(params: Params, irs: bool):
    """(min_db, mean_db, max_db) over the perimeter of the lattice."""
    x, y = perimeter(params)
    z = np.full(x.shape, params.user_height)
    signal = irs_signal(params, x, y, z) if irs else conventional_signal(params, x, y, z)
    linear = signal / (interference(params, x, y, z) + params.noise)
    mean = math.fsum(linear.tolist()) / linear.size
    to_db = lambda v: 10.0 * math.log10(v) if v > 0.0 else -math.inf  # noqa: E731
    return to_db(float(linear.min())), to_db(mean), to_db(float(linear.max()))


def close_db(value: float, expected: float) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= DB_TOL


def mp_spot_checks(evaluate) -> int:
    """Check the float reference and the program's scalar API at 50 digits.

    `evaluate(params, user)` returns the program's conv, irs and
    interference powers at one user position.  Returns the number of
    points checked; 0 when mpmath is not installed.
    """
    try:
        import mpmath as mp
    except ImportError:
        return 0
    mp.mp.dps = 50
    base = Params()
    cases = [
        (base, (10.0, 0.0, 1.5)),
        (base, (137.0, 61.0, 1.5)),
        (geometric(replace(base, irs=(60.25, 80.5, 9.0)), (1.0, 0.0, -1.0)), (190.0, 12.0, 1.5)),
    ]
    for params, user in cases:
        u = [mp.mpf(v) for v in user]
        wl = mp.mpf(C) / mp.mpf(params.frequency)

        def hp_dist(p):
            return mp.sqrt(sum((u[k] - mp.mpf(p[k])) ** 2 for k in range(3)))

        def hp_direct(power, alpha, d):
            return mp.mpf(power) * wl ** 2 / (16 * mp.pi ** 2 * d ** mp.mpf(alpha))

        conv = hp_direct(params.power_conv, params.alpha_micro, hp_dist(params.bs))
        itf = hp_direct(params.macro_power, params.alpha_macro, hp_dist(params.macro_bs))
        r1 = mp.sqrt(sum((mp.mpf(params.bs[k]) - mp.mpf(params.irs[k])) ** 2 for k in range(3)))
        r2 = hp_dist(params.irs)
        if params.normal is None:
            ct, cr = mp.cos(mp.mpf(params.theta_t)), mp.cos(mp.mpf(params.theta_r))
        else:
            n = [mp.mpf(v) for v in params.normal]
            ct = sum((mp.mpf(params.bs[k]) - mp.mpf(params.irs[k])) * n[k] for k in range(3)) / r1
            cr = sum((u[k] - mp.mpf(params.irs[k])) * n[k] for k in range(3)) / r2
        d = wl / 2
        gains = mp.mpf(10) ** (mp.mpf(params.gain_tx_db) / 10) * mp.mpf(10) ** (mp.mpf(params.gain_rx_db) / 10)
        irs = (mp.mpf(params.power_irs) * wl ** 2 * mp.mpf(params.reflection) ** 2
               * (4 * mp.pi * d * d / wl ** 2) * gains * d * d * mp.mpf(params.elements) ** 4
               * ct * cr / ((r1 * r2) ** 2 * 64 * mp.pi ** 3))
        x, y, z = (np.array([v]) for v in user)
        got = evaluate(params, user)
        ref = {
            "conv": float(conventional_signal(params, x, y, z)[0]),
            "irs": float(irs_signal(params, x, y, z)[0]),
            "interference": float(interference(params, x, y, z)[0]),
        }
        for key, exact in (("conv", conv), ("irs", irs), ("interference", itf)):
            for label, value in (("reference", ref[key]), ("program", got[key])):
                err = abs((mp.mpf(value) - exact) / exact)
                require(err <= REL_TOL, f"{label} {key} power at {user}: relative error {err}")
    return len(cases)
