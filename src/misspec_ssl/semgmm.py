"""Weighted semi-supervised EM for diagonal-covariance Gaussian mixtures.

The objective is

    sum_{labeled} log f(x_i, y_i | theta) + w * sum_{unlabeled} log f(x_j | theta)

with f(x, y) summing the components mapped to class y and f(x) marginalizing
over all components. The unlabeled weight w realizes the original (w=1),
unbiased (w=N_l/(N_l+N_u)) and supervised (w=0) objectives in one code path.
Every density comes from one helper, the per-component log-joint, shape
(K, N): one contiguous row of the N points per component. Masked to a
point's allowed components, its log-normalizers over the K rows are both
the E-step's and the objective's. A joint density f(x, y) scores each point
against the components of its class y only. Also provides Bayes plug-in
classification and a Monte-Carlo estimator of the KL divergence between two
fitted joints (no closed form exists for mixture-mixture KL), which scores
its samples in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, InputError, SolverOptions, derive_seed, integer_array, read_array

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR_SCALE = 1e-6
SURPLUS_JITTER_SCALE = 0.1
# numpy's np.sum adds fewer values than this strictly left to right, and
# this many or more pairwise.
PAIRWISE_SUM_MIN = 8
# kl_mc scores its samples this many at a time.
KL_BLOCK = 8192


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture with diagonal covariances and a component-to-class map.

    ``covariances`` holds per-component variance vectors (K, d). Mixing
    weights sum to 1 and every variance is floored away from singularity.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    comp_map: np.ndarray
    n_classes: int
    unlabeled_weight: float = 1.0
    final_loglik: float = float("nan")
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "covariances", np.asarray(self.covariances, dtype=float))
        object.__setattr__(self, "comp_map", integer_array(self.comp_map, "comp_map"))

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def to_dict(self) -> dict:
        return {
            "family": "sem",
            "n_classes": self.n_classes,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "comp_map": self.comp_map.tolist(),
            "unlabeled_weight": self.unlabeled_weight,
            "final_loglik": self.final_loglik,
        }

    @staticmethod
    def from_dict(d: dict) -> "GmmModel":
        """Inverse of to_dict; every number is read by read_array, with its
        type and shape, and InputError unless the weights are >= 0 and not all
        0, the variances > 0 and not so small, nor the means so large, that no
        query can be scored, and the component map covers the classes 0..C-1."""
        weights = read_array(d, "weights", float, (None,), within=(0, np.inf))
        means = read_array(d, "means", float, (weights.size, None))
        m = GmmModel(
            weights=weights, means=means,
            covariances=read_array(d, "covariances", float, means.shape),
            comp_map=read_array(d, "comp_map", int, (weights.size,)),
            n_classes=read_array(d, "n_classes", int),
            unlabeled_weight=read_array(d, "unlabeled_weight", float, within=(0, 1)),
            final_loglik=read_array(d, "final_loglik", float))
        if not np.any(m.weights):
            raise InputError("weights must not all be 0")
        if not np.all(m.covariances > 0):
            raise InputError("covariances must be finite and > 0")
        if _query_bound(m) <= 0:
            raise InputError(f"covariances (min {m.covariances.min():.3g}) and means "
                             f"(max |mean| {np.max(np.abs(m.means)):.3g}) leave no query "
                             "whose squared distances stay finite")
        if set(m.comp_map.tolist()) != set(range(m.n_classes)):
            raise InputError(f"comp_map must map the {m.n_components} components onto every class "
                             f"0..{m.n_classes - 1}")
        return m


@dataclass(frozen=True)
class KlEstimate:
    """Monte-Carlo divergence estimate: clamped value, raw sample mean, and
    the standard error of the mean."""

    value: float
    std_error: float
    n_samples: int
    seed: int
    raw_mean: float


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of a 2-D array, bit for bit np.sum(a.T, axis=1)
    on its C-ordered transpose: numpy adds fewer than PAIRWISE_SUM_MIN
    values strictly left to right from 0.0, as this fold of whole rows does,
    and more pairwise, so from PAIRWISE_SUM_MIN rows up this calls np.sum on
    a C-ordered copy of the transpose (np.sum(a, axis=0) would add whole
    rows in order)."""
    if len(a) >= PAIRWISE_SUM_MIN:
        return np.sum(a.T.copy(), axis=1)
    out = np.add(a[0], 0.0)
    for row in a[1:]:
        out += row
    return out


def _col_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=0) of a 2-D array of N >= 1 rows and K >= 2 columns,
    bit for bit: numpy adds each column of such an array strictly top to
    bottom from 0.0, and so does this running total of one column at a
    time, without numpy's per-row pass over K. (At K = 1 numpy sums the
    contiguous column pairwise; this stays top to bottom.)"""
    return np.array([0.0 + np.cumsum(a[:, j])[-1] for j in range(a.shape[1])])


def _component_log_joint(
    m: GmmModel, x: np.ndarray, comps: np.ndarray | None = None
) -> np.ndarray:
    """log pi_k + log N(x_i; mu_k, diag(var_k)) for the components ``comps``
    (default: all) and all points, shape (len(comps), N), each component's
    row written in place. The scaled squared distance sums (x - mu)**2 / var
    over the features as np.sum(..., axis=1) does; below PAIRWISE_SUM_MIN
    features that is a left-to-right fold of one feature column at a time,
    with no (N, d) temporaries. The fold starts at the first feature's term,
    not at 0.0: a term is >= +0 or NaN, and 0.0 + t == t for every such t.
    ``x`` is read C-ordered, so no value depends on the caller's memory
    layout; a width other than the model's is an InputError."""
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=float)
    n, d = x.shape
    if d != m.dim:
        raise InputError(f"x holds {d} features but the model {m.dim}")
    comps = range(m.n_components) if comps is None else comps
    with np.errstate(divide="ignore"):
        log_w = np.log(m.weights)
    out = np.empty((len(comps), n))
    t = np.empty(n)
    for row, k in zip(out, comps):
        var, mu = m.covariances[k], m.means[k]
        if d < PAIRWISE_SUM_MIN:
            np.subtract(x[:, 0], mu[0], out=row)
            row *= row
            row /= var[0]
            for j in range(1, d):
                np.subtract(x[:, j], mu[j], out=t)
                t *= t
                t /= var[j]
                row += t
        else:
            diff = x - mu
            np.sum(diff * diff / var, axis=1, out=row)
        row += d * LOG_2PI + np.sum(np.log(var))
        row *= -0.5
        row += log_w[k]
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the rows of a 2-D array, one value per column,
    shifted by the finite column max; -inf for a column that is all -inf."""
    amax = a.max(axis=0)
    np.copyto(amax, 0.0, where=~np.isfinite(amax))
    shifted = a - amax
    total = _sum_rows(np.exp(shifted, out=shifted))
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += amax
    return total


def _masked_log_joint(
    m: GmmModel, x: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Component log-joints of the rows of ``x``, shape (K, N), and their
    log-normalizers (N,). ``mask`` (one row per point) covers the leading
    rows of ``x``: a log-joint is -inf where it is False; points past it are
    unmasked."""
    log_r = _component_log_joint(m, x)
    np.copyto(log_r[:, : len(mask)], -np.inf, where=~mask.T)
    return log_r, _logsumexp(log_r)


def _objective_rows(d: Dataset, comp_map: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the weighted objective and their component mask. Labeled
    rows come first, each restricted by the mask to the components of its
    class; the unlabeled rows, over all components and past the mask, follow
    when w != 0."""
    rows = d.labeled_idx
    if d.n_unlabeled and w != 0.0:
        rows = np.concatenate([rows, d.unlabeled_idx])
    return d.features.take(rows, axis=0), comp_map[None, :] == d.labels[:, None]


def _objective(norm: np.ndarray, n_labeled: int, w: float) -> float:
    """The weighted objective from the row log-normalizers of _objective_rows."""
    return float(np.sum(norm[:n_labeled])) + w * float(np.sum(norm[n_labeled:]))


def joint_log_density(m: GmmModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log f(x_i, y_i | theta): logsumexp over the components of class y_i,
    -inf for a class without a component. ``x`` holds one row per class in
    ``y``.

    The rows of each class are gathered and scored against that class's
    components only, each placed at its component's row of a (K, rows)
    array that holds -inf at the other components. That is the full
    scoring masked to the class, so its logsumexp is the same bit for bit;
    the other classes' components are never computed."""
    y = np.atleast_1d(integer_array(y, "y"))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != y.size:
        raise InputError(f"x holds {x.shape[0]} rows but y {y.size} classes")
    out = np.full(y.size, -np.inf)  # for a y that is no class
    for c in range(m.n_classes):
        comps = np.flatnonzero(m.comp_map == c)
        rows = np.flatnonzero(y == c)
        log_r = np.full((m.n_components, rows.size), -np.inf)
        log_r[comps] = _component_log_joint(m, x.take(rows, axis=0), comps)
        out[rows] = _logsumexp(log_r)
    return out


def class_log_joint(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """log f(x_i, y | theta) for every class y, shape (N, C): the transposed
    view of one contiguous row per class."""
    comp = _component_log_joint(m, x)
    out = np.full((m.n_classes, comp.shape[1]), -np.inf)
    for c in range(m.n_classes):
        comps = np.flatnonzero(m.comp_map == c)
        if comps.size:
            out[c] = _logsumexp(comp[comps])
    return out.T


def _col_var(a: np.ndarray) -> np.ndarray:
    """np.var(a, axis=0) of a C-ordered 2-D array of N >= 1 rows, bit for
    bit. On such an array of two or more columns np.var adds each column
    top to bottom, as _col_sum does, for both its mean and its sum of
    squared deviations; this takes the same steps one column at a time,
    with no (N, d) temporaries. A lone column numpy sums pairwise, so it
    keeps np.var. The caller passes a Dataset's C-ordered features."""
    n, dim = a.shape
    if dim == 1:
        return np.var(a, axis=0)
    mean = _col_sum(a) / n
    out = np.empty(dim)
    t = np.empty(n)
    for j in range(dim):
        np.subtract(a[:, j], mean[j], out=t)
        t *= t
        out[j] = (0.0 + np.cumsum(t, out=t)[-1]) / n
    return out


def _variance_floor(features: np.ndarray) -> float:
    mean_var = float(np.mean(_col_var(features)))
    return max(VARIANCE_FLOOR_SCALE * mean_var, 1e-12)


def _init_model(d: Dataset, k: int, comp_map: np.ndarray, floor: float, seed: int) -> GmmModel:
    """Per-class labeled means; surplus components of a class get seeded
    Gaussian jitter of 0.1 x the per-class std around that mean."""
    rng = np.random.default_rng(derive_seed(seed, "sem-init"))
    dim = d.dim
    means = np.empty((k, dim))
    variances = np.empty((k, dim))
    lab_x = d.features[d.labeled_idx]
    for c in range(d.n_classes):
        mask = d.labels == c
        mu = lab_x[mask].mean(axis=0)
        var = np.maximum(lab_x[mask].var(axis=0), floor)
        comps = np.flatnonzero(comp_map == c)
        for j, comp in enumerate(comps.tolist()):
            jitter = 0.0
            if j > 0:
                jitter = SURPLUS_JITTER_SCALE * np.sqrt(var) * rng.standard_normal(dim)
            means[comp] = mu + jitter
            variances[comp] = var
    return GmmModel(
        weights=np.full(k, 1.0 / k),
        means=means,
        covariances=variances,
        comp_map=comp_map,
        n_classes=d.n_classes,
    )


def fit_sem(d: Dataset, k: int, comp_map: np.ndarray, opts: SolverOptions) -> GmmModel:
    """Weighted EM on the semi-supervised objective.

    Labeled points distribute responsibility only among the components of
    their class; unlabeled points over all components, scaled by the resolved
    weight. One masked log-joint pass per model gives both its objective and
    the next E-step's responsibilities. The weighted objective is
    non-decreasing per iteration; singular covariances are repaired by
    flooring, never fatal.
    """
    comp_map = integer_array(comp_map, "comp_map")
    if k < d.n_classes:
        raise InputError(f"K={k} must be >= number of classes {d.n_classes}")
    if comp_map.size != k:
        raise InputError(f"comp_map covers {comp_map.size} components, expected {k}")
    if set(comp_map.tolist()) != set(range(d.n_classes)):
        raise InputError("comp_map must be surjective onto the class set")
    # Every deviation from a mean is at most 2*peak, so N squared deviations
    # sum to at most 4*N*peak**2: the bound keeps that sum finite.
    peak = float(np.max(np.abs(d.features)))
    bound = 0.5 * float(np.sqrt(np.finfo(float).max / d.n_points))
    if peak > bound:
        raise InputError(
            f"feature magnitude {peak:.3g} exceeds {bound:.3g}, beyond which the "
            f"squared deviations of {d.n_points} points overflow float64"
        )

    n_labeled = d.n_labeled  # a count over the rows on every read
    w = opts.resolve_unlabeled_weight(n_labeled, d.n_points - n_labeled)
    floor = _variance_floor(d.features)
    model = _init_model(d, k, comp_map, floor, opts.seed)
    x, mask = _objective_rows(d, comp_map, w)
    diff = np.empty_like(x)
    # One strided column per component: the M-step's products of a strided
    # column keep their bits, those of a contiguous row do not.
    wr = np.empty((len(x), k))

    log_r, norm = _masked_log_joint(model, x, mask)
    objective = _objective(norm, n_labeled, w)
    trace = [objective]
    for _ in range(opts.max_iter):
        # E-step: normalized responsibilities, one row per point. A row
        # whose allowed components all collapsed falls back to uniform over
        # them; only a labeled row can, since an unlabeled row allows every
        # component and some component has weight. The log-joints are freed
        # before the next are made.
        with np.errstate(invalid="ignore"):
            np.subtract(log_r, norm, out=wr.T)
        del log_r
        np.exp(wr, out=wr)
        bad = np.flatnonzero(~np.isfinite(norm))
        if bad.size:
            wr[bad] = mask[bad] / mask[bad].sum(axis=1, keepdims=True)

        # M-step: weighted closed-form updates with variance flooring. A
        # labeled row weighs 1, so scaling the unlabeled block by w gives
        # every weighted responsibility.
        if w != 1.0:  # x * 1.0 == x
            wr[n_labeled:] *= w
        mass = _col_sum(wr)
        means = model.means.copy()
        variances = model.covariances.copy()
        for comp in range(k):
            if mass[comp] <= 1e-12:
                continue
            mu = wr[:, comp] @ x / mass[comp]
            for j in range(x.shape[1]):
                np.subtract(x[:, j], mu[j], out=diff[:, j])
            diff *= diff
            means[comp] = mu
            variances[comp] = np.maximum(wr[:, comp] @ diff / mass[comp], floor)
        model = replace(model, weights=mass / mass.sum(), means=means, covariances=variances)

        log_r, norm = _masked_log_joint(model, x, mask)
        new_objective = _objective(norm, n_labeled, w)
        trace.append(new_objective)
        delta = new_objective - objective
        objective = new_objective
        if delta < opts.tol:
            break

    return replace(
        model, unlabeled_weight=w, final_loglik=objective, objective_trace=tuple(trace)
    )


def _query_bound(m: GmmModel) -> float:
    """The largest query feature magnitude the model's log-densities take.
    While every |x - mu| stays within 0.5 * sqrt(float64 max * min(1,
    var_min / d)), each square, each (x - mu)**2 / var and their sum over the
    d features stay finite; |x - mu| is at most max|x| + max|mu|."""
    limit = 0.5 * float(np.sqrt(np.finfo(float).max * min(1.0, m.covariances.min() / m.dim)))
    return limit - float(np.max(np.abs(m.means)))


def bayes_classify_batch(m: GmmModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayes plug-in labels (Q,) and class posteriors (Q, C) of query points,
    from one pass over the components. A label is the argmax over classes of
    the joint density f(x, y), ties to the lowest class id; the posteriors
    are the normalized joint densities, the transposed view of one row per
    class. Log-domain throughout. Features beyond _query_bound, or a width
    other than the model's, are an InputError."""
    bound = _query_bound(m)
    peak = float(np.max(np.abs(x), initial=0.0))
    if peak > bound:
        raise InputError(
            f"query feature magnitude {peak:.3g} exceeds {bound:.3g}, beyond which "
            "the model's squared distances overflow float64"
        )
    logj = class_log_joint(m, x).T
    p = logj - logj.max(axis=0)
    np.exp(p, out=p)
    p /= _sum_rows(p)
    return np.argmax(logj, axis=0), p.T


def sample_joint(m: GmmModel, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) pairs from the model: component by mixing weight, then the
    component's Gaussian; y is the component's class. Every component and
    normal is drawn up front, so the draws do not depend on the block size;
    the normals are scaled and shifted in place KL_BLOCK rows at a time, so
    beyond x the working memory is that of one block."""
    comps = rng.choice(m.n_components, size=n, p=m.weights / m.weights.sum())
    x = rng.standard_normal((n, m.dim))
    sd = np.sqrt(m.covariances)  # one square root per component, not per sample
    for b0 in range(0, n, KL_BLOCK):
        b = slice(b0, b0 + KL_BLOCK)
        x[b] *= sd.take(comps[b], axis=0)
        x[b] += m.means.take(comps[b], axis=0)
    return x, m.comp_map[comps]


def kl_mc(m1: GmmModel, m2: GmmModel, n_samples: int, seed: int) -> KlEstimate:
    """Monte-Carlo KL(f(.|m1) || f(.|m2)) over the joint (x, y).

    Samples from m1 and averages log f1 - log f2; the reported value is
    clamped at 0 from below, the raw mean is kept alongside. Deterministic
    given the seed. All samples are drawn at once, so the draws do not
    depend on the block size, and scored KL_BLOCK at a time: beyond the
    samples, their classes and terms (8 * (d + 2) bytes a sample), the
    working memory is that of one block. The samples are freed before the
    standard error's pass over the terms.
    """
    if n_samples < 1:
        raise InputError(f"n_samples must be >= 1, got {n_samples}")
    if m1.dim != m2.dim or m1.n_classes != m2.n_classes:
        raise InputError("models must share dimension and class set")
    rng = np.random.default_rng(seed)
    x, y = sample_joint(m1, n_samples, rng)
    # A term depends on its own sample alone, so the blocks give the terms
    # of one whole-array pass bit for bit.
    terms = np.empty(n_samples)
    for b0 in range(0, n_samples, KL_BLOCK):
        b = slice(b0, b0 + KL_BLOCK)
        np.subtract(joint_log_density(m1, x[b], y[b]), joint_log_density(m2, x[b], y[b]),
                    out=terms[b])
    del x, y  # np.std takes a temporary as large as the terms
    raw = float(np.mean(terms))
    std_error = float(np.std(terms, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return KlEstimate(
        value=max(raw, 0.0),
        std_error=std_error,
        n_samples=n_samples,
        seed=seed,
        raw_mean=raw,
    )
