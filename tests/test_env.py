"""Environment distributions and stream determinism."""

import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaincinv, ndtri

from stochpop import engine, env
from stochpop.env import (
    Constant,
    Discrete,
    EnvSpec,
    Gamma,
    LogNormal,
    Normal,
    Uniform,
    make_stream,
    parse_dist,
    parse_env_spec,
    sample_block,
)
from stochpop.errors import ConfigurationError


def test_same_key_gives_identical_draws():
    a = make_stream(42, 0).uniforms(100)
    b = make_stream(42, 0).uniforms(100)
    assert np.array_equal(a, b)


def test_distinct_replicates_differ():
    a = make_stream(42, 0).uniforms(100)
    b = make_stream(42, 1).uniforms(100)
    assert not np.array_equal(a, b)


def test_fresh_stream_resets_counter():
    s = make_stream(42, 0)
    first = s.uniforms(1)[0]
    s.uniforms(1_000_000)
    assert make_stream(42, 0).uniforms(1)[0] == first


def test_batching_does_not_change_the_stream():
    s1 = make_stream(7, 3)
    s2 = make_stream(7, 3)
    chunks = np.concatenate([s1.uniforms(13), s1.uniforms(1), s1.uniforms(86)])
    assert np.array_equal(chunks, s2.uniforms(100))


def test_stream_key_outside_64_bits_is_refused():
    # the Philox key is two 64-bit words; numpy raised OverflowError
    for key in ((-1,), (2**64,), (0, 2**64), (0, -1)):
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 2\*\*64\)"):
            make_stream(*key)
    assert make_stream(2**64 - 1, 2**64 - 1).uniforms(1).shape == (1,)


def test_sample_advances_stream_one_draw_per_coordinate():
    spec = EnvSpec((Constant(2.0), Uniform(0.0, 1.0)))
    s1 = make_stream(1, 0)
    v1 = sample_block(spec, s1, 1)[0]
    v2 = sample_block(spec, s1, 1)[0]
    assert v1[0] == 2.0 and v2[0] == 2.0
    block = sample_block(spec, make_stream(1, 0), 2)
    assert np.array_equal(block, np.stack([v1, v2]))


def test_constant_always_exact():
    spec = EnvSpec((Constant(2.0),))
    draws = sample_block(spec, make_stream(5, 2), 1000)
    assert np.all(draws == 2.0)


def test_lognormal_log_mean_lln():
    spec = EnvSpec((LogNormal(0.0, 0.3),))
    draws = sample_block(spec, make_stream(11, 0), 100_000)[:, 0]
    assert abs(np.log(draws).mean()) < 3 * 0.3 / math.sqrt(100_000)


def test_gamma_mean_is_shape_times_scale():
    spec = EnvSpec((Gamma(1.0, 2.0),))
    draws = sample_block(spec, make_stream(12, 0), 100_000)[:, 0]
    se = math.sqrt(1.0) * 2.0 / math.sqrt(100_000)
    assert abs(draws.mean() - 2.0) < 3 * se


@pytest.mark.parametrize(
    "dist,mean,sd",
    [
        (Normal(1.5, 0.7), 1.5, 0.7),
        (LogNormal(0.2, 0.4), math.exp(0.2 + 0.08), math.exp(0.2 + 0.08) * math.sqrt(math.expm1(0.16))),
        (Gamma(2.5, 1.3), 3.25, math.sqrt(2.5) * 1.3),
        (Uniform(-1.0, 3.0), 1.0, 4.0 / math.sqrt(12)),
        (Discrete((0.0, 1.0, 5.0), (0.2, 0.5, 0.3)), 2.0, math.sqrt(0.2 * 4 + 0.5 * 1 + 0.3 * 9)),
    ],
)
def test_moment_sanity_across_seeds(dist, mean, sd):
    # empirical mean within 4 analytic standard errors for almost every seed
    n = 100_000 if not isinstance(dist, Gamma) else 20_000
    misses = 0
    for seed in range(30):
        draws = sample_block(EnvSpec((dist,)), make_stream(seed, 0), n)[:, 0]
        if abs(draws.mean() - mean) > 4 * sd / math.sqrt(n):
            misses += 1
    assert misses <= 1


def test_gamma_supports_shape_below_one():
    spec = EnvSpec((Gamma(0.4, 1.5),))
    draws = sample_block(spec, make_stream(3, 0), 50_000)[:, 0]
    assert np.all(draws > 0)
    se = math.sqrt(0.4) * 1.5 / math.sqrt(50_000)
    assert abs(draws.mean() - 0.6) < 4 * se


def test_discrete_probabilities():
    spec = EnvSpec((Discrete((1.0, 2.0), (0.25, 0.75)),))
    draws = sample_block(spec, make_stream(9, 0), 40_000)[:, 0]
    frac = (draws == 2.0).mean()
    assert abs(frac - 0.75) < 4 * math.sqrt(0.25 * 0.75 / 40_000)


@pytest.mark.parametrize(
    "bad",
    [
        Normal(0.0, 0.0),
        LogNormal(0.0, -1.0),
        Gamma(0.0, 1.0),
        Gamma(1.0, 0.0),
        Uniform(1.0, 1.0),
        Discrete((1.0, 2.0), (0.5, 0.4)),
        Discrete((1.0,), (-1.0,)),
    ],
)
def test_invalid_distributions_rejected(bad):
    with pytest.raises(ConfigurationError):
        EnvSpec((bad,))


def test_parse_dist_accepts_shorthand_and_rejects_unknown():
    assert parse_dist(2.5) == Constant(2.5)
    assert parse_dist({"dist": "normal", "mean": 0.0, "sd": 1.0}) == Normal(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        parse_dist({"dist": "normal", "mean": 0.0})
    with pytest.raises(ConfigurationError):
        parse_dist({"dist": "normal", "mean": 0.0, "sd": 1.0, "bogus": 1})
    with pytest.raises(ConfigurationError):
        parse_dist({"dist": "zeta", "s": 2.0})


def test_parse_env_spec_round_trip():
    spec = parse_env_spec(
        {"coords": [{"dist": "lognormal", "log_mean": 0.0, "log_sd": 0.3}, {"dist": "constant", "value": 1.0}]}
    )
    assert spec.dim == 2
    assert isinstance(spec.coords[0], LogNormal)
    with pytest.raises(ConfigurationError):
        parse_env_spec({"coords": []})
    with pytest.raises(ConfigurationError):
        parse_env_spec({"coordinates": []})


# one JSON form of each distribution kind
_DIST_CONFIGS = [
    {"dist": "constant", "value": 1.5},
    {"dist": "normal", "mean": -0.5, "sd": 0.3},
    {"dist": "lognormal", "log_mean": 0.2, "log_sd": 0.4},
    {"dist": "gamma", "shape": 2.0, "scale": 0.5},
    {"dist": "uniform", "lo": 0.5, "hi": 2.0},
    {"dist": "discrete", "values": [0.0, 3.0], "probs": [0.25, 0.75]},
]


def test_dist_to_config_inverts_parse_dist_for_every_kind():
    assert sorted(obj["dist"] for obj in _DIST_CONFIGS) == sorted(env._DISTS)
    for obj in _DIST_CONFIGS:
        d = parse_dist(obj)
        assert env.dist_to_config(d) == obj
        assert parse_dist(env.dist_to_config(d)) == d
    with pytest.raises(ConfigurationError, match="not a distribution"):
        env.dist_to_config(EnvSpec((Constant(1.0),)))


# ---------------------------------------------------------------------------
# In-place inverse CDFs against the out-of-place expressions they replace


def _oracle_ppf(dist, u):
    """Each distribution's inverse CDF as it was computed out of place."""
    if isinstance(dist, Constant):
        return np.full_like(u, dist.value, dtype=float)
    if isinstance(dist, Normal):
        return dist.mean_ + dist.sd * ndtri(u)
    if isinstance(dist, LogNormal):
        return np.exp(dist.log_mean + dist.log_sd * ndtri(u))
    if isinstance(dist, Gamma):
        if dist.shape == 1.0:
            return -dist.scale * np.log1p(-u)
        return dist.scale * gammaincinv(dist.shape, u)
    if isinstance(dist, Uniform):
        return dist.lo + (dist.hi - dist.lo) * u
    cum = np.cumsum(np.asarray(dist.probs, dtype=float))
    cum[-1] = 1.0
    idx = np.searchsorted(cum, u, side="right")
    return np.asarray(dist.values, dtype=float)[np.minimum(idx, len(dist.values) - 1)]


_ALL_DISTS = [
    Constant(2.5),
    Normal(1.5, 0.7),
    LogNormal(0.3, 0.3),
    Gamma(1.0, 2.0),
    Gamma(2.0, 2.0),
    Gamma(0.4, 1.5),
    Uniform(-1.0, 3.0),
    Discrete((0.0, 1.0, 5.0), (0.2, 0.5, 0.3)),
    # cum[-1] rounds to 1 - 2**-53, so u = 1 - 2**-53 lands on it
    Discrete((1.0, 2.0, 3.0), (0.7, 0.2, 0.1)),
]


def _edge_uniforms(n=20_000):
    u = make_stream(31, 0).uniforms(n)
    u[:3] = (2.0**-54, 2.0**-53, 1.0 - 2.0**-53)
    return u


@pytest.mark.parametrize("dist", _ALL_DISTS, ids=repr)
def test_ppf_in_place_gives_the_bits_of_the_out_of_place_form(dist):
    u = _edge_uniforms()
    want = _oracle_ppf(dist, u).view(np.int64)
    block = np.full((u.size, 3), np.nan)
    out = block[:, 1]  # a strided column, as in a step-major draw block
    assert dist.ppf(u, out=out) is out
    assert np.array_equal(np.ascontiguousarray(out).view(np.int64), want)
    assert np.isnan(block[:, [0, 2]]).all()
    fresh = dist.ppf(u)
    assert isinstance(fresh, np.ndarray) and fresh.shape == u.shape
    assert not np.shares_memory(fresh, u)
    assert np.array_equal(fresh.view(np.int64), want)


# every kind, and two whose bounds are not the draws at the end words
_BOUNDED_DISTS = _ALL_DISTS + [
    Gamma(0.01, 1.0),  # its least draw underflows to exactly 0
    # unsorted values, and a last value of probability zero that the clip
    # draws: the probabilities sum to 1 - 1e-13, below the greatest word
    Discrete((3.0, -1.0, 2.0, 9.0), (0.2, 0.5, 0.3 - 1e-13, 0.0)),
]


@pytest.mark.parametrize("dist", _BOUNDED_DISTS, ids=repr)
def test_bounds_are_the_draws_at_the_least_and_greatest_word(dist):
    spec = EnvSpec((Constant(1.0), dist))
    bounds = spec.bounds()
    assert bounds.shape == (2, 2) and bounds[:, 0].tolist() == [1.0, 1.0]
    ends = spec.transform(np.array([[2.0**-54] * 2, [1.0 - 2.0**-53] * 2]))
    if dist == _BOUNDED_DISTS[-1]:
        assert ends[:, 1].tolist() == [3.0, 9.0] and bounds[:, 1].tolist() == [-1.0, 9.0]
    else:
        assert np.array_equal(bounds, ends)
    draws = sample_block(spec, make_stream(32, 0), 100_000)
    assert np.all((bounds[0] <= draws) & (draws <= bounds[1]))


def test_transform_into_a_step_major_block_gives_the_bits_of_each_coordinate():
    spec = EnvSpec(tuple(_ALL_DISTS))
    rows, n, m = 5, 400, spec.dim
    u = _edge_uniforms(rows * n * m).reshape(rows, n, m)
    draws = np.empty((n, rows, m))
    assert spec.transform(u, out=draws.transpose(1, 0, 2)).base is draws
    fresh = spec.transform(u)
    for j, dist in enumerate(spec.coords):
        want = _oracle_ppf(dist, u[..., j]).view(np.int64)
        assert np.array_equal(np.ascontiguousarray(draws[..., j].T).view(np.int64), want), j
        assert np.array_equal(fresh[..., j].view(np.int64), want), j


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_allocates_one_scratch_and_no_ppf_temporary():
    # a column of the block is 800 kB, above the scratch bound; before, each
    # ppf allocated two or three column-sized temporaries and the constant
    # a full one
    rows, n = 1000, 100
    column = rows * n * 8
    scratch = (env._SCRATCH // n) * n * 8
    assert scratch < column
    spec = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0), Gamma(1.0, 2.0), Gamma(2.0, 1.0),
                    Normal(0.0, 1.0), Uniform(0.0, 2.0)))
    u = _edge_uniforms(rows * n * spec.dim).reshape(rows, n, spec.dim)
    draws = np.empty((n, rows, spec.dim))
    peak = _peak_bytes(lambda: spec.transform(u, out=draws.transpose(1, 0, 2)))
    assert scratch <= peak < scratch + 0.25 * column
    for dist in spec.coords:
        assert _peak_bytes(lambda: dist.ppf(u[..., 0], out=draws[:, :, 0].T)) < 0.25 * column


@pytest.mark.parametrize("shape", [(70_000, 3), (5, 70_000, 3), (2, 3, 40_000, 3)])
def test_transform_in_scratch_blocks_matches_each_coordinate(shape):
    # blocks of the leading axis: one block with a short tail, one row per
    # block, and a block of 2-d entries
    spec = EnvSpec((LogNormal(0.3, 0.3), Constant(1.0), Normal(0.5, 2.0)))
    u = _edge_uniforms(math.prod(shape)).reshape(shape)
    got = spec.transform(u)
    for j, dist in enumerate(spec.coords):
        assert np.array_equal(got[..., j], _oracle_ppf(dist, u[..., j])), j


# ---------------------------------------------------------------------------
# The transform split across CPUs: the worker count never changes a bit


def _cpus(monkeypatch, n):
    monkeypatch.setattr(env, "_usable_cpus", lambda: n)


# (leading entries, entries per leading entry): one block just under and one
# just over the split size, a block of three slices, a block whose rows are
# fewer than the forced workers (6 rows per 60,000-value block) with a
# one-row tail, and a step-major lockstep block with a short tail
_SPLIT_SHAPES = [
    (2 * env._SPLIT - 1, ()),
    (2 * env._SPLIT, ()),
    (3 * env._SPLIT + 5, ()),
    (13, (10_000,)),
    (37, (2048,)),
]


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
@pytest.mark.parametrize("shape", _SPLIT_SHAPES, ids=str)
def test_transform_gives_the_oracle_bits_for_any_worker_count(monkeypatch, workers, shape):
    _cpus(monkeypatch, workers)
    spec = EnvSpec(tuple(_ALL_DISTS))
    lead, inner = shape
    u = _edge_uniforms(lead * math.prod(inner) * spec.dim).reshape((lead,) + inner + (spec.dim,))
    draws = np.full(inner + (lead, spec.dim), np.nan)
    spec.transform(u, out=np.moveaxis(draws, -2, 0))
    for j, dist in enumerate(spec.coords):
        want = _oracle_ppf(dist, u[..., j]).view(np.int64)
        got = np.ascontiguousarray(np.moveaxis(draws[..., j], -1, 0)).view(np.int64)
        assert np.array_equal(got, want), (j, dist)


class _Recording:
    """A split distribution that records the thread and size of every ppf
    call and returns Uniform(0, 1)'s values."""

    split_ppf = True

    def __init__(self):
        self.calls = []

    def validate(self):
        pass

    def ppf(self, u, out=None):
        self.calls.append((threading.get_ident(), u.size))
        out[...] = u
        return out


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_block_splits_into_one_slice_per_cpu_only_above_twice_the_split_size(
        monkeypatch, workers):
    _cpus(monkeypatch, workers)
    main = threading.get_ident()
    for n, slices in [(2 * env._SPLIT - 1, 1), (2 * env._SPLIT, min(2, workers)),
                      (3 * env._SPLIT, min(3, workers))]:
        dist = _Recording()
        u = _edge_uniforms(n)
        assert np.array_equal(EnvSpec((dist,)).transform(u[:, None])[:, 0], u)
        assert len(dist.calls) == slices, n
        assert sum(size for _, size in dist.calls) == n
        assert min(size for _, size in dist.calls) >= min(n, env._SPLIT)
        # the first slice runs on the calling thread, the others on the pool's
        assert sum(ident == main for ident, _ in dist.calls) == 1


def _ppf_threads(monkeypatch, cls) -> list:
    """The name of the thread of every call of ``cls.ppf`` from now on."""
    names = []
    real = cls.ppf

    def ppf(self, u, out=None):
        names.append(threading.current_thread().name)
        return real(self, u, out)

    monkeypatch.setattr(cls, "ppf", ppf)
    return names


def _ppf_threads_alive() -> list:
    return [t.name for t in threading.enumerate() if t.name.startswith("stochpop-ppf")]


@pytest.mark.parametrize("dist", _ALL_DISTS, ids=repr)
def test_only_gammaincinv_is_split(monkeypatch, dist):
    # the other ppfs take 10-20 ns a value: a thread hand-off costs more
    # than a slice of theirs saves
    _cpus(monkeypatch, 2)
    names = _ppf_threads(monkeypatch, type(dist))
    u = _edge_uniforms(env._SCRATCH)
    assert np.array_equal(EnvSpec((dist,)).transform(u[:, None])[:, 0], _oracle_ppf(dist, u))
    split = isinstance(dist, Gamma) and dist.shape != 1.0
    assert len(names) == (2 if split else 1)
    assert any(name.startswith("stochpop-ppf") for name in names) == split


def test_draw_chunks_give_the_same_draws_with_one_worker_and_with_two(monkeypatch):
    # hassell-wide's first chunk (blocks of 128 rows x 512 steps), a gamma
    # coordinate in blocks of that shape, and biennial-gamma's first chunk
    # (one block of 20 rows x 2048 steps)
    cases = [
        (EnvSpec((LogNormal(0.3, 0.3),)), 4096, 512),
        (EnvSpec((Gamma(2.0, 2.0),)), 256, 512),
        (EnvSpec((Gamma(2.0, 2.0),)), 20, 2048),
    ]
    for spec, rows, steps in cases:
        got = []
        for workers in (1, 2):
            _cpus(monkeypatch, workers)
            streams = [make_stream(0, r) for r in range(rows)]
            (t, draws), = engine._draw_chunks(spec, streams, steps)
            got.append(draws.copy())
        assert got[0].shape == (steps, rows, 1)
        assert np.array_equal(got[0].view(np.int64), got[1].view(np.int64))


class _Slow:
    """A split distribution whose ppf raises on the slice starting at
    uniform ``bad`` and sleeps on every other, recording when each slice
    ends."""

    split_ppf = True

    def __init__(self, bad):
        self.bad = bad
        self.ended = []

    def validate(self):
        pass

    def ppf(self, u, out=None):
        if u[0] == self.bad:
            raise ValueError("bad slice")
        time.sleep(0.2)
        out[...] = u
        self.ended.append(time.monotonic())
        return out


@pytest.mark.parametrize("bad_slice", [0, 1])
def test_a_failing_slice_surfaces_after_every_other_slice_has_returned(monkeypatch, bad_slice):
    # slice 0 runs on the calling thread, slice 1 on the pool's
    _cpus(monkeypatch, 3)
    u = np.linspace(0.01, 0.99, 3 * env._SPLIT)
    dist = _Slow(bad=u[bad_slice * env._SPLIT])
    with pytest.raises(ValueError, match="bad slice"):
        EnvSpec((dist,)).transform(u[:, None])
    raised = time.monotonic()
    assert len(dist.ended) == 2 and max(dist.ended) <= raised


def test_no_slice_thread_outlives_its_transform(monkeypatch):
    _cpus(monkeypatch, 3)
    u = _edge_uniforms(3 * env._SPLIT).reshape(-1, 1)
    names = _ppf_threads(monkeypatch, Gamma)
    EnvSpec((Gamma(2.0, 2.0),)).transform(u)
    assert sum(name.startswith("stochpop-ppf") for name in names) == 2
    assert _ppf_threads_alive() == []
    bad = np.linspace(0.01, 0.99, 3 * env._SPLIT)
    with pytest.raises(ValueError, match="bad slice"):
        EnvSpec((_Slow(bad=bad[env._SPLIT]),)).transform(bad[:, None])
    assert _ppf_threads_alive() == []


def _child_transform(spec, u, want):
    got = spec.transform(u)
    sys.exit(0 if np.array_equal(got.view(np.int64), want.view(np.int64)) else 1)


def test_a_forked_child_transforms_after_the_parent_made_the_pool(monkeypatch):
    # the parent's slices ran on threads of its own; the child inherits none
    # of them and must start its own
    _cpus(monkeypatch, 2)
    spec = EnvSpec((Gamma(2.0, 2.0),))
    u = _edge_uniforms(4 * env._SPLIT).reshape(-1, 1)
    names = _ppf_threads(monkeypatch, Gamma)
    want = spec.transform(u)
    assert any(name.startswith("stochpop-ppf") for name in names)
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        child = multiprocessing.get_context("fork").Process(
            target=_child_transform, args=(spec, u, want))
        child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in the transform")
    assert child.exitcode == 0
