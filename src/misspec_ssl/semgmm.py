"""Weighted semi-supervised EM for diagonal-covariance Gaussian mixtures.

The objective is

    sum_{labeled} log f(x_i, y_i | theta) + w * sum_{unlabeled} log f(x_j | theta)

with f(x, y) summing the components mapped to class y and f(x) marginalizing
over all components. The unlabeled weight w realizes the original (w=1),
unbiased (w=N_l/(N_l+N_u)) and supervised (w=0) objectives in one code path.
Every density comes from one helper, the per-component log-joint: masked to
a row's allowed components, its log-normalizers are both the E-step's and
the objective's. Also provides Bayes plug-in classification and a
Monte-Carlo estimator of the KL divergence between two fitted joints (no
closed form exists for mixture-mixture KL).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, InputError, SolverOptions, derive_seed

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR_SCALE = 1e-6
SURPLUS_JITTER_SCALE = 0.1


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
        object.__setattr__(self, "comp_map", np.asarray(self.comp_map, dtype=int))

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def to_dict(self) -> dict:
        return {
            "family": "sem",
            "n_components": self.n_components,
            "n_classes": self.n_classes,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariance_type": "diag",
            "covariances": self.covariances.tolist(),
            "comp_map": self.comp_map.tolist(),
            "unlabeled_weight": self.unlabeled_weight,
            "final_loglik": self.final_loglik,
        }

    @staticmethod
    def from_dict(d: dict) -> "GmmModel":
        """Inverse of to_dict; InputError unless the arrays have consistent
        shapes, the weights are finite and >= 0, the variances finite and
        > 0, and the component map names classes 0..C-1."""
        if d["covariance_type"] != "diag":
            raise InputError(f"covariance_type must be 'diag', got {d['covariance_type']!r}")
        m = GmmModel(
            weights=d["weights"],
            means=d["means"],
            covariances=d["covariances"],
            comp_map=d["comp_map"],
            n_classes=d["n_classes"],
            unlabeled_weight=d["unlabeled_weight"],
            final_loglik=d["final_loglik"],
        )
        k = m.n_components
        if m.weights.ndim != 1 or m.means.ndim != 2 or m.means.shape[0] != k:
            raise InputError(
                f"weights {m.weights.shape} and means {m.means.shape} must have shapes "
                "(K,) and (K, d)"
            )
        if not np.all(np.isfinite(m.weights) & (m.weights >= 0)):
            raise InputError("weights must be finite and >= 0")
        if m.covariances.shape != m.means.shape:
            raise InputError(f"covariances {m.covariances.shape} must have shape {m.means.shape}")
        if not np.all(np.isfinite(m.covariances) & (m.covariances > 0)):
            raise InputError("covariances must be finite and > 0")
        if m.comp_map.shape != (k,) or np.any((m.comp_map < 0) | (m.comp_map >= m.n_classes)):
            raise InputError(f"comp_map must map {k} components to classes 0..{m.n_classes - 1}")
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


def _component_log_joint(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """log pi_k + log N(x_i; mu_k, diag(var_k)) for all points and
    components, shape (N, K)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    out = np.empty((n, m.n_components))
    for k in range(m.n_components):
        var = m.covariances[k]
        diff = x - m.means[k]
        out[:, k] = -0.5 * (d * LOG_2PI + np.sum(np.log(var)) + np.sum(diff * diff / var, axis=1))
    with np.errstate(divide="ignore"):
        return out + np.log(m.weights)[None, :]


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def _masked_log_joint(
    m: GmmModel, x: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Component log-joints of the rows of ``x``, -inf where ``mask`` is
    False, shape (N, K), and their row log-normalizers (N,)."""
    log_r = np.where(mask, _component_log_joint(m, x), -np.inf)
    return log_r, _logsumexp(log_r, axis=1)


def _objective_rows(
    d: Dataset, comp_map: np.ndarray, w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the weighted objective: features, component mask and row
    weights. Labeled rows come first, each restricted to the components of
    its class; the unlabeled rows, over all components, follow when w != 0."""
    x = [d.features[d.labeled_idx]]
    mask = [comp_map[None, :] == d.labels[:, None]]
    alpha = [np.ones(d.n_labeled)]
    if d.n_unlabeled and w != 0.0:
        x.append(d.features[d.unlabeled_idx])
        mask.append(np.ones((d.n_unlabeled, comp_map.size), dtype=bool))
        alpha.append(np.full(d.n_unlabeled, w))
    return np.concatenate(x), np.concatenate(mask), np.concatenate(alpha)


def _objective(norm: np.ndarray, n_labeled: int, w: float) -> float:
    """The weighted objective from the row log-normalizers of _objective_rows."""
    return float(np.sum(norm[:n_labeled])) + w * float(np.sum(norm[n_labeled:]))


def joint_log_density(m: GmmModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log f(x_i, y_i | theta): logsumexp over the components of class y_i."""
    y = np.atleast_1d(np.asarray(y, dtype=int))
    return _masked_log_joint(m, x, m.comp_map[None, :] == y[:, None])[1]


def class_log_joint(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """log f(x_i, y | theta) for every class y, shape (N, C)."""
    comp = _component_log_joint(m, x)
    out = np.full((comp.shape[0], m.n_classes), -np.inf)
    for c in range(m.n_classes):
        cols = np.flatnonzero(m.comp_map == c)
        if cols.size:
            out[:, c] = _logsumexp(comp[:, cols], axis=1)
    return out


def _variance_floor(features: np.ndarray) -> float:
    mean_var = float(np.mean(np.var(features, axis=0)))
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
    comp_map = np.asarray(comp_map, dtype=int)
    if k < d.n_classes:
        raise InputError(f"K={k} must be >= number of classes {d.n_classes}")
    if comp_map.size != k:
        raise InputError(f"comp_map covers {comp_map.size} components, expected {k}")
    if set(comp_map.tolist()) != set(range(d.n_classes)):
        raise InputError("comp_map must be surjective onto the class set")

    w = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)
    floor = _variance_floor(d.features)
    model = _init_model(d, k, comp_map, floor, opts.seed)
    x, mask, alpha = _objective_rows(d, comp_map, w)

    log_r, norm = _masked_log_joint(model, x, mask)
    objective = _objective(norm, d.n_labeled, w)
    trace = [objective]
    for _ in range(opts.max_iter):
        # E-step: row-normalized responsibilities; a row whose allowed
        # components all collapsed falls back to uniform over them.
        with np.errstate(invalid="ignore"):
            resp = np.exp(log_r - norm[:, None])
        bad = ~np.isfinite(norm)
        if np.any(bad):
            resp[bad] = mask[bad] / mask[bad].sum(axis=1, keepdims=True)

        # M-step: weighted closed-form updates with variance flooring.
        wr = resp * alpha[:, None]
        mass = wr.sum(axis=0)
        means = model.means.copy()
        variances = model.covariances.copy()
        for comp in range(k):
            if mass[comp] <= 1e-12:
                continue
            mu = wr[:, comp] @ x / mass[comp]
            diff = x - mu
            means[comp] = mu
            variances[comp] = np.maximum(wr[:, comp] @ (diff * diff) / mass[comp], floor)
        model = replace(model, weights=mass / mass.sum(), means=means, covariances=variances)

        log_r, norm = _masked_log_joint(model, x, mask)
        new_objective = _objective(norm, d.n_labeled, w)
        trace.append(new_objective)
        delta = new_objective - objective
        objective = new_objective
        if delta < opts.tol:
            break

    return replace(
        model, unlabeled_weight=w, final_loglik=objective, objective_trace=tuple(trace)
    )


def bayes_classify_batch(m: GmmModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayes plug-in labels (Q,) and class posteriors (Q, C) of query points,
    from one pass over the components. A label is the argmax over classes of
    the joint density f(x, y), ties to the lowest class id; the posteriors
    are the normalized joint densities. Log-domain throughout."""
    logj = class_log_joint(m, x)
    p = np.exp(logj - np.max(logj, axis=1, keepdims=True))
    return np.argmax(logj, axis=1), p / p.sum(axis=1, keepdims=True)


def sample_joint(m: GmmModel, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) pairs from the model: component by mixing weight, then the
    component's Gaussian; y is the component's class."""
    comps = rng.choice(m.n_components, size=n, p=m.weights / m.weights.sum())
    noise = rng.standard_normal((n, m.dim)) * np.sqrt(m.covariances[comps])
    return m.means[comps] + noise, m.comp_map[comps]


def kl_mc(m1: GmmModel, m2: GmmModel, n_samples: int, seed: int) -> KlEstimate:
    """Monte-Carlo KL(f(.|m1) || f(.|m2)) over the joint (x, y).

    Samples from m1 and averages log f1 - log f2; the reported value is
    clamped at 0 from below, the raw mean is kept alongside. Deterministic
    given the seed.
    """
    if n_samples < 1:
        raise InputError(f"n_samples must be >= 1, got {n_samples}")
    if m1.dim != m2.dim or m1.n_classes != m2.n_classes:
        raise InputError("models must share dimension and class set")
    rng = np.random.default_rng(seed)
    x, y = sample_joint(m1, n_samples, rng)
    terms = joint_log_density(m1, x, y) - joint_log_density(m2, x, y)
    raw = float(np.mean(terms))
    std_error = float(np.std(terms, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return KlEstimate(
        value=max(raw, 0.0),
        std_error=std_error,
        n_samples=n_samples,
        seed=seed,
        raw_mean=raw,
    )
