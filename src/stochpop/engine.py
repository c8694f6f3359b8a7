"""Trajectory simulation, occupation statistics, and ergodic averages.

The driver advances all replicates in lockstep (vectorized over the
replicate axis) while every replicate consumes draws only from its own
stream, so results are bit-identical across runs and across any grouping
of rows into one batch.  Occupation fractions and functional
time-averages are counted and summed per time batch over the post-burn-in
window; standard errors come from 20 equal time batches per replicate,
which keeps them honest under autocorrelation.  No sample path is kept: a
run keeps only these counts and sums and each replicate's terminal state,
so its memory does not grow with the horizon.

Every stream of the package opens in ``_open_streams``, once the model has
accepted the environment, under an id that ``_stream_id`` packs from one
table of namespaces, so no two estimators share a stream.
Every trajectory run, here and in lyap and persist, opens its rows through
``_open_rows``: one stream and one start per row, and the draws in pieces
that each lie in one time batch.  This module is also the one place an
estimate is made from data: ``_batch_estimates`` (per row),
``_pooled_estimates`` (the pool of rows), ``_iid_estimate`` and
``_binomial_estimate`` build every ``RateEstimate`` of the package.

The step loop only advances the state and stores each measured row: the
state into a ``(steps, rows, k)`` block, ``log f`` into a block of the same
shape when a ``LogPerCapita`` is measured, and the log growth of the total
into a ``(steps, rows)`` block when ``LogNorm`` is.  A block stores at most
``env._SCRATCH`` values (or one step) after its row 0, so each piece is cut
into sub-pieces of at most that many steps.  The blocks are read at every
sub-piece end, which lies in one time batch: every set counts the stored
states into its ``(rows, sets, batches)`` counts, and each summed block adds
its rows to its batch's running sum, kept as the block's row 0, in step
order.  That gives the bits of per-step ``acc += x``.  Both per-capita modes
(``log_mult`` and ``simplex``) take the floor flag once per piece from a
running minimum of the state; only the linear mode, which freezes a floored
row, flags it at each step.

A run's memory is one draw block, reused by every chunk of the run (a chunk
is valid only until the next is drawn), plus cache-sized buffers: the
uniforms of a block of rows, the transform's scratch and the measured
blocks.

A wide batch runs in slices (``_in_slices``): ``_drive``, and
``lyap._mc_batch_sums`` for its products, open every row's stream and start
first, then cut the rows into one contiguous slice per usable CPU, each of
at least _MIN_SLICE_ROWS rows for ``_drive`` and, for lyap, of as many rows
as hold ``lyap._MIN_SLICE_ROW_STEPS`` row-steps.  The first slice runs in
the calling process and each other in a forked child, which sends its
arrays back; they are joined in row order.  Rows share nothing, so the
slices give the bits of the one batch, and each slice draws its own rows in
the chunk lengths of the whole run, so the run keeps one draw block's
budget across its processes and lyap cuts its products at the one batch's
chunk ends.  A slice returns its fault rather than raising it, and the
caller raises the one batch's (``_raise_first_fault``).
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from . import env
from .env import _SCRATCH, make_stream, open_unit, sample_block
from .errors import ConfigurationError, NumericError, StochpopError
from .models import LOG_CAP, LOG_FLOOR, Model

__all__ = [
    "N_BATCHES",
    "SimConfig",
    "ExtinctionNeighborhood",
    "OutsideBall",
    "Complement",
    "RateEstimate",
    "Coordinate",
    "LogPerCapita",
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
# Fewest rows in a slice of a split batch.  In-process simulate on the
# hassell-wide model at horizon 4000, best of 3 on 2 vCPUs, inline against
# 2 slices: R=128 took 0.055 against 0.082 s, R=256 0.092 against 0.072 s,
# R=512 0.152 against 0.114 s, R=1024 0.275 against 0.193 s and R=2048
# 0.521 against 0.328 s.  The fork pays off from slices of about 128 rows;
# 256 keeps a margin over that break-even
_MIN_SLICE_ROWS = 256
_LINEAR_FLOOR = float(np.exp(LOG_FLOOR))
# stream namespace -> (first id, bit width of each index); see _stream_id
_STREAM_IDS = {
    "replicate": (0, (32,)), "growth_at": (1 << 32, ()), "rps": ((1 << 32) + 1, ()),
    "taylor": ((1 << 32) + 2, ()), "scale": ((1 << 32) + 4, ()), "face": (1 << 33, (6, 20)),
    "audit": (1 << 34, ()), "moments": (1 << 35, ()), "vertex": (1 << 36, (3,)),
}


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
        names = [ExtinctionNeighborhood(eta).name for eta in self.eta_grid]
        if len(set(names)) < len(names):  # one name would report both sets as one
            raise ConfigurationError(f"eta_grid entries must differ in name, got {names}")
        if self.bound_radius is not None and not self.bound_radius > 0:
            raise ConfigurationError("bound_radius must be positive")


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


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class RateEstimate:
    mean: float
    std_error: float
    batches: int
    n: int


# ---------------------------------------------------------------------------
# Streams and initial states


def _stream_id(name: str, *indices: int) -> int:
    """The id of stream ``indices`` of namespace ``name``: the namespace's
    first id plus the indices packed into their fields, the last lowest.  A
    face's code has bit i set for each species i of its support.  Every
    stream is keyed by the run's own seed and such an id; no seed is offset."""
    first, widths = _STREAM_IDS[name]
    if len(indices) != len(widths) or not all(0 <= i < 1 << w for i, w in zip(indices, widths)):
        raise ConfigurationError(f"the {name} stream id packs indices below "
                                 f"{[1 << w for w in widths]}, so that no two streams share an "
                                 f"id; got {list(indices)}")
    sid = 0
    for index, width in zip(indices, widths):
        sid = (sid << width) | index
    return first + sid


def _open_streams(model, envspec, seed: int, ids) -> list:
    """The only place a stream opens: stream (seed, id) for each of ``ids``,
    once ``model.check_env`` has accepted the environment."""
    model.check_env(envspec)
    return [make_stream(seed, sid) for sid in ids]


def _point_draws(model, envspec, seed: int, sid: int, n: int) -> np.ndarray:
    """The first n draws of stream (seed, sid), one per row.  A size below
    2 draws at most one row, which ``_iid_estimate`` refuses."""
    return sample_block(envspec, _open_streams(model, envspec, seed, [sid])[0], max(n, 0))


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
    for support in dict.fromkeys(supports):  # in row order: the first refused row decides
        if any(x[j] != 0.0 for j in range(k) if j not in support):
            raise ConfigurationError("initial_state must vanish outside the face support")
        # a start that vanishes on a species of a face would run a smaller face
        if len(support) < k and not all(x[j] > 0.0 for j in support):
            raise ConfigurationError("initial_state must be positive on the face support")
    return np.tile(x, (r, 1))


# ---------------------------------------------------------------------------
# Core driver


def _batch_lengths(n_steps: int, n_batches: int) -> np.ndarray:
    # must agree exactly with the per-step index (rel * n_batches) // n_steps
    idx = (np.arange(n_steps) * n_batches) // n_steps
    return np.bincount(idx, minlength=n_batches)


def _draw_chunks(envspec, streams, t_total, shared=None):
    """Yield ``(t, draws)`` for steps t..t+n-1 in chunks of at most _CHUNK
    steps and, for wide batches, at most _BLOCK draws of the ``shared`` rows
    (by default these streams; a slice of a run's rows shares the budget of
    the run's rows and so draws the run's chunk lengths): ``draws[s, i]`` is
    the environment of ``streams[i]`` at step t+s.  Streams are
    counter-based, so no draw depends on the chunking; but lyap cuts its
    blocked products at chunk ends, so its sums change in their last bits
    with the chunk length, which is shorter than _CHUNK once rows * m
    exceeds _BLOCK / _CHUNK.

    Every chunk is a view of one draw block per run, so it is valid only
    until the next chunk is drawn.  Its one consumer is ``_open_rows``, whose
    pieces are views of the chunk; any other consumer must copy.  The
    uniforms are drawn a block of rows at a time into one buffer of at most
    _SCRATCH values (or one row), which is opened and transformed straight
    into those rows of the draw block while it is still in cache."""
    m = envspec.dim
    rows = len(streams)
    chunk = min(t_total, _CHUNK, max(1, _BLOCK // ((shared or rows) * m)))
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


def _measured_steps(cfg: SimConfig, estimates: bool) -> int:
    """The measured steps, horizon - burn_in.  An estimate over them needs
    at least 2: one step is one time batch, whose standard error would read
    0.  Fewer are refused when ``estimates`` are made."""
    n_steps = cfg.horizon - cfg.burn_in
    if estimates and n_steps < 2:
        raise ConfigurationError(f"an estimate needs at least 2 measured steps "
                                 f"(horizon - burn_in), got {n_steps}")
    return n_steps


def _open_rows(model, envspec, cfg, rows=None, estimates=False):
    """The only place a trajectory run opens its streams.  ``rows`` are
    (stream id, support, label): a row draws from stream (cfg.seed, id) and
    starts on its support; by default they are replicates 0..R-1 of
    ``model`` on every species.  Returns ``(rows, x0, lengths, pieces)``:
    one start per row, the step count of each time batch, and
    ``pieces(lo=0, hi=len(rows))``, which yields ``(t, b, draws)`` of rows
    lo..hi-1 for steps t..t+n-1, no draw of which is read: ``check_env``
    decided the domain.  Each chunk, of the run's length whatever rows are
    drawn, is cut at the burn-in end and at every time-batch edge, so a
    piece lies in one chunk and one batch ``b`` (-1 in the burn-in); it is
    valid only until the next piece is drawn.  A run
    that makes time-batch ``estimates`` from too few measured steps is
    refused here (``_measured_steps``), before any stream opens."""
    n_steps = _measured_steps(cfg, estimates)
    if rows is None:
        rows = [(_stream_id("replicate", r), tuple(range(model.k)), f"replicate {r}")
                for r in range(cfg.replicates)]
    streams = _open_streams(model, envspec, cfg.seed, [sid for sid, _, _ in rows])
    x0 = _initial_states(model, cfg, streams, [support for _, support, _ in rows])
    # batch b covers steps edges[b] .. edges[b + 1] - 1; burn-in ends at edges[0]
    lengths = _batch_lengths(n_steps, min(N_BATCHES, n_steps))
    edges = (cfg.burn_in + np.concatenate(([0], np.cumsum(lengths)))).tolist()

    def pieces(lo=0, hi=len(rows)):
        b = -1
        for t0, draws in _draw_chunks(envspec, streams[lo:hi], cfg.horizon, len(streams)):
            t, end = t0, t0 + len(draws)
            while t < end:
                while edges[b + 1] <= t:
                    b += 1
                stop = min(end, edges[b + 1])
                yield t, b, draws[t - t0:stop - t0]
                t = stop

    return rows, x0, lengths, pieces


def _step_sum(block):
    """The sum of ``block``'s rows, added in step order: the bits of adding
    them one at a time.  numpy sums a row of one value pairwise, so that one
    is accumulated instead."""
    if block[0].size == 1:
        return np.add.accumulate(block, axis=0)[-1]
    return np.add.reduce(block, axis=0)


def _drive(model, envspec, cfg, functionals, sets, rows=None, estimates=False):
    """Advance a block of rows (see ``_open_rows``) in lockstep and measure
    them over the post-burn-in window: ``occ_counts[row, j, b]`` counts the
    steps of time batch b in ``sets[j]``, and ``fsums[row, j, b]`` sums
    ``functionals[j]`` over them.  A run with functionals, or one that asks
    for ``estimates`` from its counts, needs at least 2 measured steps.

    The rows run in ``_slices`` contiguous slices (``_in_slices``), each
    through ``_advance``, and their arrays are joined in row order.  A
    non-finite state or estimate raises the error the one batch would: the
    earliest piece's, a state's before an estimate's, the lowest row's."""
    for f in functionals:
        if not isinstance(f, (Coordinate, LogPerCapita, LogNorm)):
            raise ConfigurationError(f"unsupported functional {f!r}")
        if isinstance(f, (Coordinate, LogPerCapita)) and not 0 <= f.i < model.k:
            raise ConfigurationError(f"species index {f.i} of {f.name} out of range "
                                     f"for {model.name}")
        # the linear step has no per-capita factors to sum
        if isinstance(f, LogPerCapita) and model.sim_mode == "linear":
            raise ConfigurationError(f"{model.name} has no per-capita growth factors")
    rows, x, lengths, pieces = _open_rows(model, envspec, cfg, rows,
                                          estimates=estimates or bool(functionals))
    labels = [label for _, _, label in rows]
    n_steps = cfg.horizon - cfg.burn_in
    parts = _in_slices(lambda lo, hi: _advance(model, x[lo:hi], pieces(lo, hi), labels[lo:hi],
                                               functionals, sets, len(lengths), n_steps),
                       len(rows), _MIN_SLICE_ROWS)
    _raise_first_fault([part["fault"] for part in parts])
    raw = {key: np.concatenate([part[key] for part in parts])
           for key in ("occ_counts", "fsums", "floored", "saturated", "terminal")}
    return dict(raw, labels=labels, n_steps=n_steps, lengths=lengths)


def _slices(rows: int, min_rows: int) -> int:
    """The slices a batch of ``rows`` rows runs in: one per usable CPU, each
    of at least ``min_rows`` (>= 1) rows, so never more slices than rows,
    where the OS can fork a process and pin it to CPUs; else one."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return 1
    return max(1, min(env._usable_cpus(), rows // min_rows))


def _raise_first_fault(faults):
    """Raise the ``NumericError`` of the first of the slices' ``faults``, in
    row order, each None or ``(step, order, message)``: the lowest step,
    then order, then slice.  That is the error the one batch raises."""
    faults = [fault for fault in faults if fault is not None]
    if faults:  # min keeps the first, lowest-row slice of equal keys
        step, _, message = min(faults, key=lambda fault: fault[:2])
        raise NumericError(message, step=step)


def _in_slices(run, rows, min_rows) -> list:
    """``[run(lo, hi) for lo, hi in zip(cuts, cuts[1:])]`` over ``_slices(rows,
    min_rows)`` contiguous slices of rows 0..rows-1, each on its own share
    of the process's CPUs.  ``_drive`` and ``lyap._mc_batch_sums`` run
    their rows through it; each slice returns its fault rather than raising
    it, and the caller raises the first (``_raise_first_fault``).

    The first slice runs here, pinned to its share until it returns; each
    other runs in a child forked for this call (``_child``).  A slice pinned
    to one CPU splits no ppf (``env._split_ppf``).  Every child is reaped
    before this returns or raises, and one not yet reaped when this raises
    (a ``KeyboardInterrupt`` too) is killed first.  An exception of a slice
    is raised here, the lowest slice's first; a child that ends without
    sending its result raises a ``StochpopError`` naming its rows and exit
    status, and nothing it sent is read."""
    n = _slices(rows, min_rows)
    cuts = [rows * i // n for i in range(n + 1)]
    if n < 2:
        return [run(cuts[0], cuts[1])]
    cpus = sorted(os.sched_getaffinity(0))
    # a share of one CPU, shared, where more slices than CPUs were asked for
    shares = [set(cpus[i::n]) or {cpus[i % len(cpus)]} for i in range(n)]
    children, sources = {}, []  # children not yet reaped: pid -> (source, lo, hi)
    try:
        for share, lo, hi in zip(shares[1:], cuts[1:], cuts[2:]):
            r, w = os.pipe()
            sources.append(open(r, "rb"))
            with open(w, "wb") as sink:  # closed here once the child holds it
                pid = os.fork()
                if pid == 0:
                    _child(sink, share, run, lo, hi)
            children[pid] = (sources[-1], lo, hi)
        os.sched_setaffinity(0, shares[0])
        try:
            parts = [run(cuts[0], cuts[1])]
        finally:
            os.sched_setaffinity(0, cpus)
        for pid, (source, lo, hi) in list(children.items()):
            blob = source.read()  # up to the end of the pipe: the child has exited
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise StochpopError(f"the process running rows {lo}..{hi - 1} ended without "
                                    f"its result (exit status {status})")
            raised, value = pickle.loads(blob)
            if raised:
                raise value
            parts.append(value)
    finally:
        for source in sources:
            source.close()
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return parts


def _child(sink, share, run, lo, hi):
    """A forked slice: pins itself to ``share``, writes ``(False,
    run(lo, hi))`` or ``(True, exception)`` pickled to ``sink``, and leaves
    by ``os._exit``, which runs none of the parent's exit handlers; its exit
    status is 0 only once the whole result is written."""
    status = 1
    try:
        os.sched_setaffinity(0, share)
        try:
            reply = (False, run(lo, hi))
        except BaseException as exc:  # the parent raises it
            reply = (True, exc)
        sink.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        sink.flush()
        status = 0
    finally:
        os._exit(status)


def _advance(model, x, pieces, labels, functionals, sets, n_batches, n_steps) -> dict:
    """Advance the rows that start at ``x`` through ``pieces`` and measure
    them (see ``_drive``).  Returns their ``occ_counts``, ``fsums``,
    ``floored``, ``saturated`` and ``terminal`` arrays and ``fault``: None,
    or ``(step, order, message)`` of the first piece whose state (order 0)
    or else estimate (order 1) of some row is not finite, named by the
    first such row's label; the run stops at that piece."""
    k = model.k
    rg = len(x)

    mode = model.sim_mode
    # log_mult carries the log state ell; x is its capped view
    log_state = mode == "log_mult"
    if log_state:
        with np.errstate(divide="ignore"):
            ell = np.log(x)
    # The per-capita modes keep each coordinate's least within a piece, in the
    # state's own scale (ell or x), and flag a row at the piece end if one lies
    # below its floor.  A structural zero is a face: its floor is -inf.  The
    # log state also keeps its greatest, and flags a row saturated at the
    # piece end if it reached the cap, where x stops growing.
    floor = np.where(x > 0, LOG_FLOOR if log_state else _LINEAR_FLOOR, -np.inf)
    least = np.full((rg, k), np.inf)
    greatest = np.full((rg, k), -np.inf)

    # Measured step s of a sub-piece is stored in row s of each block: the
    # states when a set or a Coordinate reads them, log f when a LogPerCapita
    # does, and the log growth of the total when LogNorm does.  Row 0 of a
    # summed block is its running sum over the current time batch, so each
    # functional's batch sum is a view of a row 0.
    kinds = {type(f) for f in functionals}
    span = max(1, min(n_steps, _SCRATCH // (rg * k)))
    xs = np.empty((span + 1, rg, k)) if sets or Coordinate in kinds else None
    lf = np.empty((span + 1, rg, k)) if LogPerCapita in kinds else None
    norm = LogNorm in kinds  # the growth of the total is computed only then
    gr = np.empty((span + 1, rg)) if norm else None
    summed = [block for block, kind in ((xs, Coordinate), (lf, LogPerCapita), (gr, LogNorm))
              if kind in kinds]
    views = [gr[0] if isinstance(f, LogNorm) else
             (xs if isinstance(f, Coordinate) else lf)[0, :, f.i] for f in functionals]
    batch = -1  # the time batch of the running sums, set to 0.0 when it starts

    counts = np.zeros((rg, len(sets), n_batches), dtype=np.int32)
    fsums = np.zeros((rg, len(functionals), n_batches))
    floored = np.zeros(rg, dtype=bool)
    saturated = np.zeros(rg, dtype=bool)
    fault = None

    for t, b, draws in pieces:
        measuring = b >= 0
        if b > batch:
            for block in summed:
                block[0] = 0.0
            batch = b
        # sub-pieces of at most span steps, each measured when it ends
        for a in range(0, len(draws), span):
            sub = draws[a:a + span]
            for s, w in enumerate(sub, 1):
                if log_state:
                    x = np.exp(np.minimum(ell, LOG_CAP))
                if measuring and xs is not None:
                    xs[s] = x

                # advance one step; each mode sets logf and, if measured, growth
                if mode == "log_mult":
                    logf = model.log_percapita(x, w)
                    ell_new = ell + logf
                    least = np.minimum(least, ell_new)
                    np.maximum(greatest, ell_new, out=greatest)
                    ell_new = np.maximum(ell_new, floor)
                    if measuring and norm:
                        growth = logsumexp(ell_new, axis=-1) - logsumexp(ell, axis=-1)
                    ell = ell_new
                elif mode == "simplex":
                    logf = model.log_percapita(x, w)
                    x = x * np.exp(logf)
                    x /= x.sum(axis=-1, keepdims=True)
                    least = np.minimum(least, x)
                    growth = 0.0  # the total stays 1
                else:
                    x_new = model.step(x, w)  # a floored row keeps its last state
                    floored |= np.max(x_new, axis=-1) <= _LINEAR_FLOOR
                    np.copyto(x_new, x, where=floored[:, None])
                    if measuring and norm:
                        with np.errstate(divide="ignore", invalid="ignore"):
                            growth = np.log(x_new.sum(axis=-1)) - np.log(x.sum(axis=-1))
                    x = x_new

                if measuring:
                    if lf is not None:
                        lf[s] = logf
                    if norm:
                        gr[s] = growth
            if measuring:  # count the n stored states, add the n stored rows to row 0
                n = len(sub)
                for j, sd in enumerate(sets):
                    counts[:, j, b] += sd.contains(xs[1:n + 1], model).sum(axis=0)
                for block in summed:
                    block[0] = _step_sum(block[:n + 1])

        last = t + len(draws) - 1
        floored |= (least < floor).any(axis=-1)
        saturated |= (greatest >= LOG_CAP).any(axis=-1)
        least.fill(np.inf)
        greatest.fill(-np.inf)
        bad = (np.isnan(ell) | (ell == np.inf)) if log_state else ~np.isfinite(x)
        if bad.any():
            which = int(np.argwhere(bad.any(axis=-1))[0][0])
            fault = (last, 0, f"non-finite state for {labels[which]} within steps {t}..{last}")
            break
        if measuring:
            for j, view in enumerate(views):
                fsums[:, j, b] = view
            # earlier batches were checked when they were stored
            bad_sum = ~np.isfinite(fsums[:, :, b])
            if bad_sum.any():
                row, j = (int(i) for i in np.argwhere(bad_sum)[0])
                fault = (last, 1, f"non-finite estimate of {functionals[j].name} for "
                                  f"{labels[row]} within steps {t}..{last}")
                break

    if log_state:
        x = np.exp(np.minimum(ell, LOG_CAP))

    return {"occ_counts": counts, "fsums": fsums, "floored": floored, "saturated": saturated,
            "terminal": x, "fault": fault}


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


def _pooled_estimates(sums, lengths, n_steps, names, label="the pooled replicates") -> dict:
    """``{names[j]: estimate}`` over the pool of every row's time batches of
    ``(rows, F, batches)`` sums, row-major: ``rows * batches`` batches of
    ``rows * n_steps`` steps in all.  A pool of one row is that row's
    estimate.  A non-finite one raises, named by ``label``."""
    rows, n_f, b = sums.shape
    pooled = np.ascontiguousarray(sums.transpose(1, 0, 2)).reshape(1, n_f, rows * b)
    means, ses = _batch_estimates(pooled, np.tile(lengths, rows), rows * n_steps, [label], names)
    return {name: RateEstimate(mean, se, rows * b, rows * n_steps)
            for name, mean, se in zip(names, means[0].tolist(), ses[0].tolist())}


def _iid_estimate(values: np.ndarray) -> RateEstimate:
    """Mean and standard error of iid draws, with n batches of one draw
    each.  Fewer than two draws have no standard error, so they are refused
    rather than read as exact."""
    n = values.size
    if n < 2:
        raise ConfigurationError("need at least 2 draws")
    mean = float(values.mean())
    if np.ptp(values) == 0.0:
        return RateEstimate(mean, 0.0, n, n)
    return RateEstimate(mean, float(values.std(ddof=1) / np.sqrt(n)), n, n)


def _binomial_estimate(hits) -> RateEstimate:
    """Fraction of true entries of the boolean row array ``hits``, with
    binomial SE, as one batch of R rows."""
    r_total = hits.size
    p_hat = float(hits.mean())
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / r_total))
    return RateEstimate(p_hat, se, 1, r_total)


def _build_result(raw, functionals, sets) -> dict:
    n_steps = raw["n_steps"]
    lengths = raw["lengths"]
    fsums = raw["fsums"]
    b = fsums.shape[-1]
    occ = raw["occ_counts"].sum(axis=-1) / n_steps
    names = [f.name for f in functionals]
    set_names = [sd.name for sd in sets]
    means, ses = _batch_estimates(fsums, lengths, n_steps, raw["labels"], names)
    replicates = [
        {
            "occupation": dict(zip(set_names, occ_r)),
            "functional_averages": {name: RateEstimate(mean, se, b, n_steps)
                                    for name, mean, se in zip(names, means_r, ses_r)},
            "terminal_state": terminal,
            "extinct": floored,
            **({"saturated": True} if saturated else {}),
        }
        for occ_r, means_r, ses_r, terminal, floored, saturated in zip(
            occ.tolist(), means.tolist(), ses.tolist(), raw["terminal"].tolist(),
            raw["floored"].tolist(), raw["saturated"].tolist())
    ]
    pooled = {
        "occupation": {name: float(occ[:, j].mean()) for j, name in enumerate(set_names)},
        "functional_averages": _pooled_estimates(fsums, lengths, n_steps, names),
        "extinct_fraction": float(raw["floored"].mean()),
    }
    return {"pooled": pooled, "replicates": replicates}


# ---------------------------------------------------------------------------
# Public operations


def default_sets(cfg: SimConfig) -> list:
    sets = [ExtinctionNeighborhood(eta) for eta in cfg.eta_grid]
    if cfg.bound_radius is not None:
        ball = OutsideBall(cfg.bound_radius)
        sets += [ball, Complement(ball)]
    return sets


def simulate(model, envspec, cfg, functionals=()) -> dict:
    """Run replicate trajectories; summarize occupation over steps B..T-1.

    Returns ``{"pooled": {"occupation", "functional_averages",
    "extinct_fraction"}, "replicates": [{"occupation", "functional_averages",
    "terminal_state", "extinct"}, ...]}``: occupation fractions by set name,
    estimates by functional name, and each replicate's X_T as a list.
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
    return result["pooled"]["functional_averages"][functional.name]


def terminal_states(model, envspec, cfg, t: int) -> np.ndarray:
    """Each replicate's X_t, one row each, from a run that measures nothing.
    A run of horizon t from the same config ends in the same states."""
    if not (1 <= t <= cfg.horizon):
        raise ConfigurationError("time index must satisfy 1 <= t <= horizon")
    return _drive(model, envspec, replace(cfg, horizon=t, burn_in=0), (), ())["terminal"]


def ensemble_hit_probability(model, envspec, cfg, set_descriptor, t: int):
    """Fraction of replicates with X_t in the set, with binomial SE."""
    return hit_fraction(model, terminal_states(model, envspec, cfg, t), set_descriptor)


def hit_fraction(model, states, set_descriptor) -> RateEstimate:
    """Fraction of the rows of ``states`` in the set, with binomial SE."""
    return _binomial_estimate(set_descriptor.contains(states, model))

