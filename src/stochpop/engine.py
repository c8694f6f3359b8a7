"""Trajectory simulation, occupation statistics, and ergodic averages.

The driver advances all replicates in lockstep (vectorized over the
replicate axis) while every replicate consumes draws only from its own
stream, so results are bit-identical across runs and across any grouping
of rows into one batch.  Occupation fractions and functional
time-averages are accumulated streaming over the post-burn-in window;
standard errors come from 20 equal time batches per replicate, which keeps
them honest under autocorrelation.  No sample path is stored: a run keeps
only these sums and each replicate's terminal state, so its memory does not
grow with the horizon.

Every trajectory run, here and in lyap and persist, opens its rows through
``_open_rows``: one stream and one start per row, and the draws in checked
pieces that each lie in one time batch.

The step loop only advances the state and measures it.  The functionals of
a piece's time batch are summed into one per-batch accumulator, the
simplex floor flag is taken once per piece from a running minimum, and
occupation is counted once per full state block: each measured state is
stored in a ``(steps, rows, k)`` block of at most ``env._SCRATCH`` values,
and every set tests the block when it is full and once after the last
chunk.  Each gives the same bits as a per-step update.

A run's memory is one draw block, reused by every chunk of the run (a chunk
is valid only until the next is drawn), plus cache-sized buffers: the
uniforms of a block of rows, the transform's scratch and the state block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .env import _SCRATCH, make_stream, open_unit
from .errors import ConfigurationError, NumericError
from .models import LOG_CAP, LOG_FLOOR, Model

__all__ = [
    "N_BATCHES",
    "SimConfig",
    "ExtinctionNeighborhood",
    "OutsideBall",
    "Box",
    "Complement",
    "RateEstimate",
    "EmpiricalSummary",
    "PooledSummary",
    "SimulationResult",
    "Coordinate",
    "LogPerCapita",
    "Indicator",
    "LogNorm",
    "simulate",
    "ergodic_average",
    "terminal_states",
    "ensemble_hit_probability",
    "hit_fraction",
]

N_BATCHES = 20
_CHUNK = 2048
_BLOCK = 1 << 21  # most draws in one chunk: bounds a wide batch's memory
_LINEAR_FLOOR = float(np.exp(LOG_FLOOR))


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replicates: int = 1
    burn_in: int = 0
    horizon: int = 1000
    initial_state: object = "random_interior"
    eta_grid: tuple = ()
    bound_radius: object = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigurationError("replicates must be positive")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be positive")
        if not (0 <= self.burn_in < self.horizon):
            raise ConfigurationError("burn_in must satisfy 0 <= burn_in < horizon")
        for eta in self.eta_grid:
            if not eta > 0:
                raise ConfigurationError("eta_grid entries must be positive")
        if self.bound_radius is not None and not self.bound_radius > 0:
            raise ConfigurationError("bound_radius must be positive")

    def replaced(self, **kw) -> "SimConfig":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# Set descriptors


@dataclass(frozen=True)
class ExtinctionNeighborhood:
    """States within eta of the model's extinction set."""

    eta: float

    @property
    def name(self):
        return f"S_eta={self.eta:g}"

    def contains(self, x, model):
        return model.extinction.distance(x) <= self.eta


@dataclass(frozen=True)
class OutsideBall:
    """States outside the box [0, radius]^k (sup-norm ball in the orthant)."""

    radius: float

    @property
    def name(self):
        return f"outside_ball={self.radius:g}"

    def contains(self, x, model):
        return np.max(x, axis=-1) > self.radius


@dataclass(frozen=True)
class Box:
    """Product of closed per-coordinate intervals."""

    intervals: tuple

    @property
    def name(self):
        parts = ",".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)
        return f"box({parts})"

    def contains(self, x, model):
        ok = np.ones(x.shape[:-1], dtype=bool)
        for j, (lo, hi) in enumerate(self.intervals):
            ok &= (x[..., j] >= lo) & (x[..., j] <= hi)
        return ok


@dataclass(frozen=True)
class Complement:
    inner: object

    @property
    def name(self):
        return f"not[{self.inner.name}]"

    def contains(self, x, model):
        return ~self.inner.contains(x, model)


# ---------------------------------------------------------------------------
# Functionals


@dataclass(frozen=True)
class Coordinate:
    i: int

    @property
    def name(self):
        return f"coord_{self.i}"


@dataclass(frozen=True)
class Indicator:
    set_descriptor: object

    @property
    def name(self):
        return f"indicator[{self.set_descriptor.name}]"


@dataclass(frozen=True)
class LogPerCapita:
    i: int

    @property
    def name(self):
        return f"log_percapita_{self.i}"


@dataclass(frozen=True)
class LogNorm:
    @property
    def name(self):
        return "log_norm_growth"


# The functional kinds `_drive` measures, in the column order of its
# per-batch accumulator
_KINDS = (Coordinate, Indicator, LogPerCapita, LogNorm)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class RateEstimate:
    mean: float
    std_error: float
    batches: int
    n: int


@dataclass
class EmpiricalSummary:
    occupation: dict
    functional_averages: dict
    terminal_state: np.ndarray
    extinction_flag: bool


@dataclass
class PooledSummary:
    occupation: dict
    functional_averages: dict
    extinct_fraction: float


@dataclass
class SimulationResult:
    replicates: list
    pooled: PooledSummary


# ---------------------------------------------------------------------------
# Initial states


def _initial_states(model: Model, cfg: SimConfig, streams, supports) -> np.ndarray:
    """One start per stream; row i is supported on ``supports[i]`` only."""
    k = model.k
    r = len(streams)
    if isinstance(cfg.initial_state, str):
        if cfg.initial_state != "random_interior":
            raise ConfigurationError(f"unknown initial_state {cfg.initial_state!r}")
        # every start's k uniforms in one buffer, opened in one pass
        u = np.empty((r, k))
        for row, stream in zip(u, streams):
            stream.uniforms(k, out=row)
        open_unit(u)
        x0 = np.zeros((r, k))
        for support in set(supports):  # the rows of each support at once
            at = np.ix_([i for i, s in enumerate(supports) if s == support], list(support))
            if model.sim_mode == "simplex":
                e = -np.log(u[at])
                x0[at] = 0.01 + (1.0 - 0.01 * len(support)) * (e / e.sum(axis=1, keepdims=True))
            else:
                x0[at] = 0.1 + 0.9 * u[at]
        return x0
    x = np.asarray(cfg.initial_state, dtype=float)
    if x.shape != (k,):
        raise ConfigurationError(f"initial_state must have {k} coordinates")
    if np.any(x < 0):
        raise ConfigurationError("initial_state must be nonnegative")
    if model.sim_mode == "simplex":
        if abs(x.sum() - 1.0) > 1e-9:
            raise ConfigurationError("simplex initial_state must sum to 1")
        x = x / x.sum()
    for support in set(supports):
        if any(x[j] != 0.0 for j in range(k) if j not in support):
            raise ConfigurationError("initial_state must vanish outside the face support")
    return np.tile(x, (r, 1))


# ---------------------------------------------------------------------------
# Core driver


def _batch_lengths(n_steps: int, n_batches: int) -> np.ndarray:
    # must agree exactly with the per-step index (rel * n_batches) // n_steps
    idx = (np.arange(n_steps) * n_batches) // n_steps
    return np.bincount(idx, minlength=n_batches)


def _draw_chunks(envspec, streams, t_total):
    """Yield ``(t, draws)`` for steps t..t+n-1 in chunks of at most _CHUNK
    steps and, for wide batches, at most _BLOCK draws: ``draws[s, i]`` is the
    environment of ``streams[i]`` at step t+s.  Streams are counter-based, so
    no draw depends on the chunking; but lyap cuts its blocked products at
    chunk ends, so its sums change in their last bits with the chunk length,
    which is shorter than _CHUNK once rows * m exceeds _BLOCK / _CHUNK.

    Every chunk is a view of one draw block per run, so it is valid only
    until the next chunk is drawn.  Its one consumer is ``_open_rows``, whose
    pieces are views of the chunk; any other consumer must copy.  The
    uniforms are drawn a block of rows at a time into one buffer of at most
    _SCRATCH values (or one row), which is opened and transformed straight
    into those rows of the draw block while it is still in cache."""
    m = envspec.dim
    rows = len(streams)
    chunk = min(t_total, _CHUNK, max(1, _BLOCK // (rows * m)))
    span = min(rows, max(1, _SCRATCH // (chunk * m)))  # rows per uniform block
    block = np.empty((chunk, rows, m))
    buf = np.empty(span * chunk * m)
    for t in range(0, t_total, chunk):
        n = min(chunk, t_total - t)
        draws = block[:n]
        for a in range(0, rows, span):
            part = streams[a:a + span]
            # each stream fills its own contiguous row of the buffer
            u = buf[: len(part) * n * m].reshape(len(part), n * m)
            for row, stream in zip(u, part):
                stream.uniforms(n * m, out=row)
            open_unit(u)
            # the transform writes step-major, so each step's draws are contiguous
            envspec.transform(u.reshape(len(part), n, m),
                              out=draws[:, a:a + span].transpose(1, 0, 2))
        yield t, draws


def _open_rows(model, envspec, cfg, rows=None, estimates=False):
    """The only place a trajectory run opens its streams.  ``rows`` are
    (stream id, support, label): a row draws from stream (cfg.seed, id) and
    starts on its support; by default they are replicates 0..R-1 of
    ``model`` on every species.  Returns ``(rows, x0, lengths, pieces)``:
    one start per row, the step count of each time batch, and ``(t, b,
    draws)`` for steps t..t+n-1.  Each draw chunk is checked once by
    ``model.check_draws`` and cut at the burn-in end and at every time-batch
    edge, so a piece lies in one chunk and one batch ``b`` (-1 in the
    burn-in); it is valid only until the next piece is drawn.

    A run that makes time-batch ``estimates`` needs at least 2 measured
    steps: one step is one batch, whose standard error would read 0.  Fewer
    are refused here, before any stream opens."""
    model.check_env(envspec)
    n_steps = cfg.horizon - cfg.burn_in
    if estimates and n_steps < 2:
        raise ConfigurationError(f"a time-batch estimate needs at least 2 measured steps "
                                 f"(horizon - burn_in), got {n_steps}")
    if rows is None:
        rows = [(r, tuple(range(model.k)), f"replicate {r}") for r in range(cfg.replicates)]
    streams = [make_stream(cfg.seed, sid) for sid, _, _ in rows]
    x0 = _initial_states(model, cfg, streams, [support for _, support, _ in rows])
    # batch b covers steps edges[b] .. edges[b + 1] - 1; burn-in ends at edges[0]
    lengths = _batch_lengths(n_steps, min(N_BATCHES, n_steps))
    edges = (cfg.burn_in + np.concatenate(([0], np.cumsum(lengths)))).tolist()

    def pieces():
        b = -1
        for t0, draws in _draw_chunks(envspec, streams, cfg.horizon):
            model.check_draws(draws, t0)
            t, end = t0, t0 + len(draws)
            while t < end:
                while edges[b + 1] <= t:
                    b += 1
                stop = min(end, edges[b + 1])
                yield t, b, draws[t - t0:stop - t0]
                t = stop

    return rows, x0, lengths, pieces()


def _drive(model, envspec, cfg, functionals, sets, rows=None):
    """Advance a block of rows (see ``_open_rows``) in lockstep and measure
    them over the post-burn-in window."""
    for f in functionals:
        if not isinstance(f, _KINDS):
            raise ConfigurationError(f"unsupported functional {f!r}")
        if isinstance(f, (Coordinate, LogPerCapita)) and not 0 <= f.i < model.k:
            raise ConfigurationError(f"species index {f.i} of {f.name} out of range "
                                     f"for {model.name}")
        # the linear step has no per-capita factors to sum
        if isinstance(f, LogPerCapita) and model.sim_mode == "linear":
            raise ConfigurationError(f"{model.name} has no per-capita growth factors")
    rows, x, lengths, pieces = _open_rows(model, envspec, cfg, rows,
                                          estimates=bool(functionals))
    k = model.k
    n_steps = cfg.horizon - cfg.burn_in
    rg = len(rows)

    mode = model.sim_mode
    # log_mult carries the log state ell; x is its capped view
    log_state = mode == "log_mult"
    alive0 = x > 0  # structural zeros are faces, never floor crossings
    if log_state:
        with np.errstate(divide="ignore"):
            ell = np.log(x)
    # a structural zero's log state is -inf, which never lies below -inf
    log_floor = np.where(alive0, LOG_FLOOR, -np.inf)

    # Each functional's sum over the current time batch is kept in a row of
    # acc, the rows grouped by kind, so each add runs over contiguous
    # memory; acc is reset when a piece starts a new batch and stored into
    # fsums[:, cols, b] at every piece end.  Each sum still starts at 0.0 and
    # adds the same terms in the same order.
    cols = [j for kind in _KINDS for j, f in enumerate(functionals) if isinstance(f, kind)]
    groups = [[f for f in functionals if isinstance(f, kind)] for kind in _KINDS]
    coords, indicators, lpcs, lognorms = groups
    # the log growth of the total is computed only when it is measured
    norm = bool(lognorms)
    acc = np.zeros((len(cols), rg))
    acc_b = 0
    bounds = np.cumsum([0] + [len(group) for group in groups]).tolist()
    acc_coord, acc_ind, acc_lpc, acc_norm = (acc[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    coord_idx = np.array([f.i for f in coords], dtype=np.intp)
    lpc_idx = np.array([f.i for f in lpcs], dtype=np.intp)
    ind_rows = [(acc_ind[n], f.set_descriptor) for n, f in enumerate(indicators)]

    occ_counts = np.zeros((rg, len(sets)), dtype=np.int64)
    fsums = np.zeros((rg, len(functionals), len(lengths)))
    floored = np.zeros(rg, dtype=bool)
    # simplex mode: each coordinate's smallest value within the piece
    xmin = np.full((rg, k), np.inf)
    # measured states, counted into occ_counts each time the block is full
    # and once after the last chunk; the block holds at most _SCRATCH values
    # (or one step), so it and each set's test stay in cache
    xs = np.empty((max(1, min(n_steps, _SCRATCH // (rg * k))), rg, k)) if sets else None
    held = 0

    def count_occupation(states):
        for j, sd in enumerate(sets):
            occ_counts[:, j] += sd.contains(states, model).sum(axis=0)

    for t, b, draws in pieces:
        measuring = b >= 0
        if b > acc_b:
            acc.fill(0.0)
            acc_b = b
        for w in draws:
            if log_state:
                x = np.exp(np.minimum(ell, LOG_CAP))

            if measuring:
                if sets:
                    xs[held] = x
                    held += 1
                    if held == len(xs):
                        count_occupation(xs)
                        held = 0
                if coords:
                    acc_coord += x.T.take(coord_idx, axis=0)
                for row, sd in ind_rows:
                    row += sd.contains(x, model)

            # advance one step; each mode sets logf and, if measured, growth
            if mode == "log_mult":
                logf = model.log_percapita(x, w)
                ell_new = ell + logf
                dip = ell_new < log_floor
                if dip.any():
                    ell_new[dip] = LOG_FLOOR
                    floored |= dip.any(axis=-1)
                if measuring and norm:
                    growth = logsumexp(ell_new, axis=-1) - logsumexp(ell, axis=-1)
                ell = ell_new
            elif mode == "simplex":
                logf = model.log_percapita(x, w)
                x = x * np.exp(logf)
                x /= x.sum(axis=-1, keepdims=True)
                np.minimum(xmin, x, out=xmin)
                growth = 0.0  # the total stays 1
            else:
                x_new = model.step(x, w)
                crossed = (np.max(x_new, axis=-1) <= _LINEAR_FLOOR) & ~floored
                if crossed.any():
                    floored |= crossed
                    x_new[floored] = x[floored]
                if measuring and norm:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        growth = np.log(x_new.sum(axis=-1)) - np.log(x.sum(axis=-1))
                x = x_new

            if measuring:
                if lpcs:
                    acc_lpc += logf.T.take(lpc_idx, axis=0)
                if norm:
                    acc_norm += growth

        last = t + len(draws) - 1
        if mode == "simplex":
            floored |= np.where(alive0, xmin, np.inf).min(axis=-1) < _LINEAR_FLOOR
            xmin.fill(np.inf)
        bad = (np.isnan(ell) | (ell == np.inf)) if log_state else ~np.isfinite(x)
        if bad.any():
            which = int(np.argwhere(bad.any(axis=-1))[0][0])
            raise NumericError(
                f"non-finite state for {rows[which][2]} within steps {t}..{last}",
                state=None if log_state else x[which],
                step=last,
            )
        if measuring:
            # earlier batches were checked when they were stored
            fsums[:, cols, b] = acc.T
            bad_sum = ~np.isfinite(fsums[:, :, b])
            if bad_sum.any():
                row, j = (int(i) for i in np.argwhere(bad_sum)[0])
                raise NumericError(
                    f"non-finite estimate of {functionals[j].name} for {rows[row][2]} "
                    f"within steps {t}..{last}",
                    step=last,
                )

    if held:
        count_occupation(xs[:held])
    if log_state:
        x = np.exp(np.minimum(ell, LOG_CAP))

    return {
        "occ_counts": occ_counts,
        "fsums": fsums,
        "floored": floored,
        "terminal": x,
        "labels": [label for _, _, label in rows],
        "n_steps": n_steps,
        "lengths": lengths,
    }


# Per-row entries of a driver result; rows sit on axis 0 of each.
_ROW_KEYS = ("occ_counts", "fsums", "floored", "terminal", "labels")


def _row_slice(raw, a, b):
    """The driver result restricted to rows a..b-1."""
    return {key: (val[a:b] if key in _ROW_KEYS else val) for key, val in raw.items()}


def _batch_estimates(sums, lengths, n, labels, names):
    """Means and batch-means SEs over the last axis of ``(rows, F, batches)``
    time-batch sums of ``lengths`` steps, ``n`` in all: the only place a
    time-batch estimate is made.  Identical batch means come from
    deterministic inputs and give SE 0.0, not the variance's rounding
    residue.  The first non-finite mean or SE in row order raises, named by
    ``labels[row]`` and ``names[j]``.  One batch has no SE; ``_open_rows``
    allows it only in a run that measures no functional."""
    means = sums.sum(axis=-1) / n
    ses = np.zeros_like(means)
    if len(lengths) >= 2:
        bmeans = sums / lengths
        ses = np.sqrt(bmeans.var(axis=-1, ddof=1) / len(lengths))
        ses[np.ptp(bmeans, axis=-1) == 0.0] = 0.0
    bad = ~(np.isfinite(means) & np.isfinite(ses))
    if bad.any():
        r, j = (int(i) for i in np.argwhere(bad)[0])
        raise NumericError(f"non-finite estimate of {names[j]} for {labels[r]}: "
                           f"mean {float(means[r, j])}, std_error {float(ses[r, j])}")
    return means, ses


def _build_result(raw, functionals, sets) -> SimulationResult:
    n_steps = raw["n_steps"]
    lengths = raw["lengths"]
    fsums = raw["fsums"]
    rows, n_f, b = fsums.shape
    occ = raw["occ_counts"] / n_steps
    names = [f.name for f in functionals]
    set_names = [sd.name for sd in sets]
    means, ses = _batch_estimates(fsums, lengths, n_steps, raw["labels"], names)
    reps = [
        EmpiricalSummary(
            occupation=dict(zip(set_names, occ_r)),
            functional_averages={name: RateEstimate(mean, se, b, n_steps)
                                 for name, mean, se in zip(names, means_r, ses_r)},
            terminal_state=terminal,
            extinction_flag=floored,
        )
        for occ_r, means_r, ses_r, terminal, floored in zip(
            occ.tolist(), means.tolist(), ses.tolist(), raw["terminal"], raw["floored"].tolist())
    ]
    # the pool is one row of every replicate's batches, replicate-major
    pooled_sums = np.ascontiguousarray(fsums.transpose(1, 0, 2)).reshape(1, n_f, rows * b)
    means, ses = _batch_estimates(pooled_sums, np.tile(lengths, rows), rows * n_steps,
                                  ["the pooled replicates"], names)
    pooled = PooledSummary(
        occupation={sd.name: float(occ[:, j].mean()) for j, sd in enumerate(sets)},
        functional_averages={name: RateEstimate(mean, se, rows * b, rows * n_steps)
                             for name, mean, se in zip(names, means[0].tolist(), ses[0].tolist())},
        extinct_fraction=float(raw["floored"].mean()),
    )
    return SimulationResult(replicates=reps, pooled=pooled)


# ---------------------------------------------------------------------------
# Public operations


def default_sets(cfg: SimConfig) -> list:
    sets = [ExtinctionNeighborhood(eta) for eta in cfg.eta_grid]
    if cfg.bound_radius is not None:
        ball = OutsideBall(cfg.bound_radius)
        sets += [ball, Complement(ball)]
    return sets


def simulate(model, envspec, cfg, functionals=()) -> SimulationResult:
    """Run replicate trajectories; summarize occupation over steps B..T-1.

    Results are a pure function of (model, env, cfg): replicate r draws only
    from stream (cfg.seed, r), and pooled statistics reduce over replicates
    in id order.
    """
    sets = default_sets(cfg)
    raw = _drive(model, envspec, cfg, tuple(functionals), sets)
    return _build_result(raw, tuple(functionals), sets)


def ergodic_average(model, envspec, cfg, functional) -> RateEstimate:
    """Time average of one functional over the post-burn-in window."""
    result = simulate(model, envspec, cfg, functionals=(functional,))
    return result.pooled.functional_averages[functional.name]


def terminal_states(model, envspec, cfg, t: int) -> np.ndarray:
    """Each replicate's X_t, one row each, from a run that measures nothing.
    A run of horizon t from the same config ends in the same states."""
    if not (1 <= t <= cfg.horizon):
        raise ConfigurationError("time index must satisfy 1 <= t <= horizon")
    probe = cfg.replaced(horizon=t, burn_in=0, eta_grid=(), bound_radius=None)
    return _drive(model, envspec, probe, (), ())["terminal"]


def ensemble_hit_probability(model, envspec, cfg, set_descriptor, t: int):
    """Fraction of replicates with X_t in the set, with binomial SE."""
    return hit_fraction(model, terminal_states(model, envspec, cfg, t), set_descriptor)


def hit_fraction(model, states, set_descriptor) -> RateEstimate:
    """Fraction of the rows of ``states`` in the set, with binomial SE."""
    return _binomial_estimate(set_descriptor.contains(states, model))


def _binomial_estimate(hits) -> RateEstimate:
    """Fraction of true entries of the boolean row array ``hits``, with
    binomial SE; the one place a binomial SE is computed."""
    r_total = hits.size
    p_hat = float(hits.mean())
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / r_total))
    return RateEstimate(p_hat, se, 1, r_total)

