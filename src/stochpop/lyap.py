"""Dominant growth exponent of linearized dynamics.

Monte Carlo route: time-average the one-step log growth of the l1 norm of
``v <- A(0, w) v``, renormalized.  The growth summed over a run of steps
telescopes to ``log||P v||`` with ``P`` the run's matrix product, so each
time batch is computed from blocked products: a pairwise tree over the
step axis, vectorized over replicates and rescaled by the largest entry at
every level so it never overflows.  Each product entry is an ordered sum
of elementwise products, not a BLAS call, so its bits do not depend on the
host CPU's BLAS kernel.  There is no per-step Python loop except on the
error path, which replays one block to find the step at which a vector
vanished.  A run of enough row-steps runs its rows in the forked slices of
``engine._in_slices``, which give the bits and the error of the one batch.

Closed-form route for the two-stage bet-hedging model: with flowering
probability ``p`` in (0, 1), survivorship ``a``, and Gamma(k, theta) seed
draws, the exponent is

    ln(a (1 - p)) + K^{-1} * I1,
    I1 = int_0^inf ln(1+t) t^{k-1} (1+t)^{-k} e^{-z t} dt,
    K  = int_0^inf          t^{k-1} (1+t)^{-k} e^{-z t} dt,
    z  = a (1 - p)^2 / (theta p).

The derivation: writing the one-step growth factor as a(1-p)(1+t), the
auxiliary ratio t follows t' = W/(1+t) with W ~ Gamma(k, theta p /
(a (1-p)^2)), whose stationary density is proportional to
t^{k-1} (1+t)^{-k} e^{-z t} with z the reciprocal scale of W.  The
exponent is then ln(a(1-p)) plus the stationary mean of ln(1+t), and the
formula cross-validates against direct Monte Carlo on the matrix product.

Both integrals are mapped to (0, 1) via u = t/(1+t); the algebraic endpoint
factor u^{k-1} is then absorbed exactly by the graded power substitution
u = s^q with q = max(1, 2/k), after which adaptive Simpson quadrature with
Richardson error control applies cleanly for every shape k > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (RateEstimate, SimConfig, _in_slices, _open_rows, _pooled_estimates,
                     _raise_first_fault)
from .errors import ConfigurationError, QuadratureError

__all__ = [
    "GammaClosedFormInput",
    "lyapunov_mc",
    "gamma_closed_form",
    "gamma_closed_form_detailed",
    "adaptive_simpson",
]

_P_CAP = 1.0 - 1e-6
_MAX_DEPTH = 60  # halvings of a panel before adaptive_simpson gives up
# Fewest row-steps (rows x horizon) in a slice of a split lyapunov_mc run,
# whose cost grows with row-steps: its product has no per-step dispatch.
# In-process lyapunov_mc on the biennial Gamma(2, 2) model, best of 7 on 2
# vCPUs (noisy), inline against 2 slices: R=2, T=2000 took 5.2 against
# 10.7 ms, R=20 at T=2500 28 against 24 ms, T=5000 59 against 49 ms and
# T=50500 327 against 274 ms.  A fork costs about 5-10 ms, and the split
# pays off from about 25 000 row-steps a slice; 50 000 keeps a margin
_MIN_SLICE_ROW_STEPS = 50_000


# ---------------------------------------------------------------------------
# Monte Carlo exponent


def _product(mats):
    """``A_{n-1} ... A_0`` of a nonnegative ``(n, R, k, k)`` stack by a
    pairwise tree.

    Each pairwise product is divided by its largest entry, so nothing
    overflows; returns the scaled ``(R, k, k)`` product and the ``(R,)`` log
    of the scale taken out.  A zero product is left unscaled.  The stack is
    held as ``(k, k, R, n)`` planes, so each level is a few elementwise
    calls over all its products: entry (i, j) is ``a_i0*b_0j + a_i1*b_1j +
    ...``, added in order of l, and no BLAS kernel (whose FMA would change
    the bits with the host CPU) is called.
    """
    n, r, k, _ = mats.shape
    x = np.ascontiguousarray(mats.transpose(2, 3, 1, 0))
    logs = np.zeros((r, n))
    term = np.empty((k, k, r, n // 2)) if k > 1 else None
    while (m := x.shape[-1]) > 1:
        h = m // 2
        a, b = x[..., 1:2 * h:2], x[..., 0:2 * h:2]  # the pairs' later and earlier factors
        nxt = np.empty((k, k, r, h + m % 2))
        lg = np.empty((r, h + m % 2))
        prod = nxt[..., :h]
        np.multiply(a[:, :1], b[None, 0], out=prod)
        for l in range(1, k):
            np.multiply(a[:, l:l + 1], b[None, l], out=term[..., :h])
            prod += term[..., :h]
        scale = np.maximum.reduce(prod.reshape(k * k, r, h))
        scale[scale <= 0.0] = 1.0
        prod /= scale
        np.add(logs[:, 1:2 * h:2], logs[:, 0:2 * h:2], out=lg[:, :h])
        lg[:, :h] += np.log(scale)
        if m % 2:
            nxt[..., h] = x[..., -1]
            lg[:, h] = logs[:, -1]
        x, logs = nxt, lg
    return np.ascontiguousarray(x[..., 0].transpose(2, 0, 1)), logs[:, 0]


def _stepwise(mats, v):
    """One step at a time through a stack: the summed log growths, the
    final vector and the index of the first step at which some vector
    vanished, where one did (the run stops there), else None."""
    logsum = np.zeros(len(v))
    for s, a_mat in enumerate(mats):
        grown = np.einsum("rij,rj->ri", a_mat, v)
        tot = grown.sum(axis=-1)
        if np.any(tot <= 0.0):
            return logsum, v, s
        logsum += np.log(tot)
        v = grown / tot[:, None]
    return logsum, v, None


def _grow(model, v, pieces, labels, n_batches):
    """The ``(rows, n_batches)`` sums of the one-step log growths of the
    rows that start at the normalized vectors ``v``, through ``pieces``
    (see ``_mc_batch_sums``), and ``fault``: None, or ``(step, order,
    message)`` of the first piece in which some vector vanished (order 0,
    at the first such step) or else some row's log growth is not finite
    (order 1, at the piece's last step, named by the first such row's
    label); the run stops at that piece."""
    gsums = np.zeros((len(v), n_batches))
    for t, b, draws in pieces:
        mats = model.linearization_at_zero(draws)
        prod, logscale = _product(mats)
        grown = np.einsum("rij,rj->ri", prod, v)
        tot = grown.sum(axis=-1)
        if np.any(tot <= 0.0):
            # find the step at which the vector vanished
            logsum, v, s = _stepwise(mats, v)
            if s is not None:
                return gsums, (t + s, 0, "zero vector under the linearized dynamics: "
                                         "the model violates primitivity")
        else:
            logsum = np.log(tot) + logscale
            v = grown / tot[:, None]
        bad = ~np.isfinite(logsum)
        if bad.any():
            last = t + len(draws) - 1
            return gsums, (last, 1, f"non-finite log growth for {labels[int(np.argmax(bad))]} "
                                    f"within steps {t}..{last}")
        if b >= 0:
            gsums[:, b] += logsum
    return gsums, None


def _mc_batch_sums(model, envspec, cfg):
    """``(rows, n_batches)`` sums of the one-step log growths per time batch
    over the replicates 0..R-1 of ``_open_rows``, and the step count of each
    batch.

    The sum over a run of steps telescopes to ``log||P v||``, with ``P`` the
    product of the run's matrices and ``v`` the normalized vector at its
    start; every piece of ``_open_rows`` lies in one time batch (or the
    burn-in), so each piece costs one blocked product.  The matrices are
    nonnegative, so the vector vanishes inside a piece exactly when ``P v``
    does.  A piece in which a vector vanishes raises ``NumericError`` at
    the step it vanished; one whose log growth is not finite (a draw that
    overflowed) raises it naming its row and steps.

    Every stream, start and refusal is opened and decided here; then the
    rows run in ``engine._in_slices``, each slice through ``_grow`` in the
    whole run's chunk lengths, so every row's sums keep the bits of the
    one batch, and the error raised is the one batch's.
    """
    rows, v, lengths, pieces = _open_rows(model, envspec, cfg, estimates=True)
    if np.any(v <= 0):
        raise ConfigurationError("initial vector must be strictly positive")
    v = v / v.sum(axis=-1)[:, None]
    labels = [label for _, _, label in rows]
    parts = _in_slices(lambda lo, hi: _grow(model, v[lo:hi], pieces(lo, hi), labels[lo:hi],
                                            len(lengths)),
                       len(rows), -(-_MIN_SLICE_ROW_STEPS // cfg.horizon))
    _raise_first_fault([fault for _, fault in parts])
    return np.concatenate([gsums for gsums, _ in parts]), lengths


def lyapunov_mc(model, envspec, cfg: SimConfig) -> RateEstimate:
    """Time-averaged one-step log growth of the iteration renormalized in
    the l1 norm (the limit is the same in every norm)."""
    if model.sim_mode != "linear":
        raise ConfigurationError(f"{model.name} has no linearization at the origin")
    gsums, lengths = _mc_batch_sums(model, envspec, cfg)
    return _pooled_estimates(gsums[:, None], lengths, cfg.horizon - cfg.burn_in,
                             ["gamma_mc"])["gamma_mc"]


# ---------------------------------------------------------------------------
# Adaptive quadrature


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, edges, rel_tol):
    """Integrate ``f`` from ``edges[0]`` to ``edges[-1]``; returns (value,
    error_bound, evaluations).

    ``edges``, ascending and distinct, are the initial panels; grade them
    when the integrand lives on a scale a uniform grid would step over.
    Each panel is accepted when the Richardson estimate |S2 - S1|/15 meets
    its share of the tolerance ``rel_tol`` times the rough integral;
    accepted panels contribute the extrapolated value S2 + (S2 - S1)/15.
    """
    neval = 0

    def eval_f(x):
        nonlocal neval
        neval += 1
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand not finite at {x!r}")
        return y

    initial_panels = len(edges) - 1
    fvals = [eval_f(x) for x in edges]
    panels = []
    rough = 0.0
    for i in range(initial_panels):
        lo, hi = edges[i], edges[i + 1]
        fm = eval_f(0.5 * (lo + hi))
        s = _simpson(lo, hi, fvals[i], fm, fvals[i + 1])
        panels.append((lo, hi, fvals[i], fm, fvals[i + 1], s))
        rough += s
    tol = rel_tol * abs(rough) or rel_tol

    total = 0.0
    err_total = 0.0
    # (panel, share of tolerance, remaining depth)
    stack = [(p, tol / initial_panels, _MAX_DEPTH) for p in panels]
    while stack:
        (lo, hi, fa_, fm_, fb_, s), share, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        flm = eval_f(0.5 * (lo + mid))
        frm = eval_f(0.5 * (mid + hi))
        left = _simpson(lo, mid, fa_, flm, fm_)
        right = _simpson(mid, hi, fm_, frm, fb_)
        err = (left + right - s) / 15.0
        if abs(err) <= share or (hi - lo) < 1e-300:
            total += left + right + err
            err_total += abs(err)
            continue
        if depth <= 0:
            raise QuadratureError(
                f"no convergence on [{lo!r}, {hi!r}] after {_MAX_DEPTH} refinements "
                f"(local error {abs(err):g} > {share:g})"
            )
        stack.append(((lo, mid, fa_, flm, fm_, left), share / 2.0, depth - 1))
        stack.append(((mid, hi, fm_, frm, fb_, right), share / 2.0, depth - 1))
    return total, err_total, neval


# ---------------------------------------------------------------------------
# Closed form


@dataclass(frozen=True)
class GammaClosedFormInput:
    p: float
    a: float
    theta: float
    k: float
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ConfigurationError("flowering probability must lie in [0, 1]")
        if not (0.0 < self.a < 1.0):
            raise ConfigurationError("survivorship must lie in (0, 1)")
        if not (self.theta > 0 and self.k > 0):
            raise ConfigurationError("gamma scale and shape must be positive")
        if not (self.rel_tol > 0):
            raise ConfigurationError("rel_tol must be positive")


def _endpoint_integral(z: float, k: float, c: int, rel_tol: float):
    """I(c) = int_0^inf ln(1+t)^c t^{k-1} (1+t)^{-k} e^{-zt} dt.

    Mapped to (0, 1) by u = t/(1+t), then graded at the left endpoint by
    u = s^q with q = max(1, 2/k): the algebraic factor becomes s^(qk-1)
    with exponent at least 1, so the transformed integrand vanishes at both
    endpoints and has no singularity the adaptive rule must chase.
    """
    q = max(1.0, 2.0 / k)
    power = q * k - 1.0
    log_q = math.log(q)

    def integrand(s):
        if s <= 0.0 or s >= 1.0:
            return 0.0
        log_s = math.log(s)
        one_m = -math.expm1(q * log_s)  # 1 - s**q, stable near s = 1
        if one_m <= 0.0:
            return 0.0
        u = 1.0 - one_m
        expo = -z * u / one_m + power * log_s + log_q
        if expo < -745.0:
            return 0.0
        val = math.exp(expo) / one_m
        if c == 1:
            val *= -math.log(one_m)
        return val

    # Seed panels on the scales the integrand actually lives on: for large z
    # the mass sits in a spike near u ~ 1/z, for small z in a slowly decaying
    # layer reaching 1 - u ~ z.  Both ladders collapse to a handful of edges
    # when z is moderate.
    edges = [i / 8.0 for i in range(9)]
    s_spike = (1.0 / (1.0 + z)) ** (1.0 / q)
    for j in range(-8, 4):
        edges.append(s_spike * 2.0**j)
    v = z
    while v < 0.5:
        edges.append((1.0 - v) ** (1.0 / q))
        v *= 2.0
    return adaptive_simpson(integrand, sorted({x for x in edges if 0.0 <= x <= 1.0}), rel_tol)


def gamma_closed_form_detailed(inp: GammaClosedFormInput) -> dict:
    """Closed-form exponent with its quadrature error bound and count of
    integrand evaluations.

    The endpoints take dedicated branches: p = 0 gives ln(a) exactly, and
    p = 1 is evaluated at the cap 1 - 1e-6 because z -> 0 makes both
    integrals diverge slowly.
    """
    if inp.p == 0.0:
        return {"value": math.log(inp.a), "error_bound": 0.0, "evaluations": 0}
    p_eff = min(inp.p, _P_CAP)
    z = inp.a * (1.0 - p_eff) ** 2 / (inp.theta * p_eff)
    i1, e1, n1 = _endpoint_integral(z, inp.k, 1, inp.rel_tol)
    k0, e0, n0 = _endpoint_integral(z, inp.k, 0, inp.rel_tol)
    if k0 <= 0.0:
        raise QuadratureError("normalizing integral came out nonpositive")
    value = math.log(inp.a * (1.0 - p_eff)) + i1 / k0
    err = e1 / k0 + abs(i1) * e0 / (k0 * k0)
    return {"value": value, "error_bound": err, "evaluations": n1 + n0}


def gamma_closed_form(inp: GammaClosedFormInput) -> float:
    return gamma_closed_form_detailed(inp)["value"]
