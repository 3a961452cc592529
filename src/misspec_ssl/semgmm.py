"""Weighted semi-supervised EM for Gaussian mixtures.

The objective is

    sum_{labeled} log f(x_i, y_i | theta) + w * sum_{unlabeled} log f(x_j | theta)

with f(x, y) summing the components mapped to class y and f(x) marginalizing
over all components. The unlabeled weight w realizes the original (w=1),
unbiased (w=N_l/(N_l+N_u)) and supervised (w=0) objectives in one code path.
Also provides Bayes plug-in classification and a Monte-Carlo estimator of the
KL divergence between two fitted joints (no closed form exists for
mixture-mixture KL).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, InputError, SolverOptions, derive_seed, require_valid

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR_SCALE = 1e-6
SURPLUS_JITTER_SCALE = 0.1

COVARIANCE_TYPES = ("diag", "full")


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture with a component-to-class map.

    ``covariances`` holds per-component variance vectors (K, d) in "diag"
    mode or full matrices (K, d, d) in "full" mode. Mixing weights sum to 1
    and every variance is floored away from singularity.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    comp_map: np.ndarray
    n_classes: int
    covariance_type: str = "diag"
    unlabeled_weight: float = 1.0
    final_loglik: float = float("nan")
    objective_trace: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "covariances", np.asarray(self.covariances, dtype=float))
        object.__setattr__(self, "comp_map", np.asarray(self.comp_map, dtype=int))
        if self.covariance_type not in COVARIANCE_TYPES:
            raise InputError(f"covariance_type must be one of {COVARIANCE_TYPES}")

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
            "covariance_type": self.covariance_type,
            "covariances": self.covariances.tolist(),
            "comp_map": self.comp_map.tolist(),
            "unlabeled_weight": self.unlabeled_weight,
            "final_loglik": self.final_loglik,
        }

    @staticmethod
    def from_dict(d: dict) -> "GmmModel":
        return GmmModel(
            weights=d["weights"],
            means=d["means"],
            covariances=d["covariances"],
            comp_map=d["comp_map"],
            n_classes=d["n_classes"],
            covariance_type=d["covariance_type"],
            unlabeled_weight=d["unlabeled_weight"],
            final_loglik=d["final_loglik"],
        )


@dataclass(frozen=True)
class KlEstimate:
    """Monte-Carlo divergence estimate: clamped value, raw sample mean, and
    the standard error of the mean."""

    value: float
    std_error: float
    n_samples: int
    seed: int
    raw_mean: float


def _component_log_density(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """log N(x_i; mu_k, Sigma_k) for all points and components, shape (N, K)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    out = np.empty((n, m.n_components))
    if m.covariance_type == "diag":
        for k in range(m.n_components):
            var = m.covariances[k]
            diff = x - m.means[k]
            out[:, k] = -0.5 * (d * LOG_2PI + np.sum(np.log(var)) + np.sum(diff * diff / var, axis=1))
    else:
        for k in range(m.n_components):
            chol = np.linalg.cholesky(m.covariances[k])
            diff = x - m.means[k]
            z = np.linalg.solve(chol, diff.T)
            logdet = 2.0 * np.sum(np.log(np.diagonal(chol)))
            out[:, k] = -0.5 * (d * LOG_2PI + logdet + np.sum(z * z, axis=0))
    return out


def _log_weights(m: GmmModel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(m.weights)


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def _normalized_resp(log_r: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """Row-normalize responsibilities in the log domain; rows with no finite
    entry (all allowed components collapsed) fall back to uniform over the
    allowed set."""
    norm = _logsumexp(log_r, axis=1)
    with np.errstate(invalid="ignore"):
        r = np.exp(log_r - norm[:, None])
    bad = ~np.isfinite(norm)
    if np.any(bad):
        fallback = (
            np.ones_like(log_r) if allowed is None else allowed.astype(float)
        )
        fallback = fallback / fallback.sum(axis=1, keepdims=True)
        r[bad] = fallback[bad]
    return r


def joint_log_density(m: GmmModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log f(x_i, y_i | theta): logsumexp over the components of class y_i."""
    comp = _component_log_density(m, x) + _log_weights(m)[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=int))
    masked = np.where(m.comp_map[None, :] == y[:, None], comp, -np.inf)
    return _logsumexp(masked, axis=1)


def marginal_log_density(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """log f(x_i | theta): logsumexp over all components."""
    comp = _component_log_density(m, x) + _log_weights(m)[None, :]
    return _logsumexp(comp, axis=1)


def class_log_joint(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """log f(x_i, y | theta) for every class y, shape (N, C)."""
    comp = _component_log_density(m, x) + _log_weights(m)[None, :]
    out = np.full((comp.shape[0], m.n_classes), -np.inf)
    for c in range(m.n_classes):
        cols = np.flatnonzero(m.comp_map == c)
        if cols.size:
            out[:, c] = _logsumexp(comp[:, cols], axis=1)
    return out


def loglik(m: GmmModel, d: Dataset, w: float) -> float:
    """Weighted objective value of the model on a dataset; pure."""
    if d.dim != m.dim:
        raise InputError(f"model dimension {m.dim} != dataset dimension {d.dim}")
    total = 0.0
    if d.n_labeled:
        total += float(np.sum(joint_log_density(m, d.features[d.labeled_idx], d.labels)))
    if d.n_unlabeled and w != 0.0:
        total += w * float(np.sum(marginal_log_density(m, d.features[d.unlabeled_idx])))
    return total


def _variance_floor(features: np.ndarray) -> float:
    mean_var = float(np.mean(np.var(features, axis=0)))
    return max(VARIANCE_FLOOR_SCALE * mean_var, 1e-12)


def _init_model(
    d: Dataset, k: int, comp_map: np.ndarray, covariance_type: str, floor: float, seed: int
) -> GmmModel:
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
    if covariance_type == "diag":
        covs = variances
    else:
        covs = np.array([np.diag(v) for v in variances])
    return GmmModel(
        weights=np.full(k, 1.0 / k),
        means=means,
        covariances=covs,
        comp_map=comp_map,
        n_classes=d.n_classes,
        covariance_type=covariance_type,
    )


def fit_sem(
    d: Dataset,
    k: int,
    comp_map: np.ndarray,
    opts: SolverOptions,
    covariance_type: str = "diag",
    ignore_labels: bool = False,
) -> GmmModel:
    """Weighted EM on the semi-supervised objective.

    Labeled points distribute responsibility only among the components of
    their class; unlabeled points over all components, scaled by the resolved
    weight. ``ignore_labels`` realizes the unsupervised limit by giving
    labeled points unrestricted responsibilities as well. The weighted
    objective is non-decreasing per iteration; singular covariances are
    repaired by flooring, never fatal.
    """
    require_valid(d)
    comp_map = np.asarray(comp_map, dtype=int)
    if k < d.n_classes:
        raise InputError(f"K={k} must be >= number of classes {d.n_classes}")
    if comp_map.size != k:
        raise InputError(f"comp_map covers {comp_map.size} components, expected {k}")
    if set(comp_map.tolist()) != set(range(d.n_classes)):
        raise InputError("comp_map must be surjective onto the class set")
    if covariance_type not in COVARIANCE_TYPES:
        raise InputError(f"covariance_type must be one of {COVARIANCE_TYPES}")

    w = opts.resolve_unlabeled_weight(d.n_labeled, d.n_unlabeled)
    floor = _variance_floor(d.features)
    model = _init_model(d, k, comp_map, covariance_type, floor, opts.seed)

    lab_x = d.features[d.labeled_idx]
    unl_x = d.features[d.unlabeled_idx]
    lab_mask = comp_map[None, :] == d.labels[:, None] if d.n_labeled else None

    objective = loglik(model, d, w)
    trace = [objective]
    for _ in range(opts.max_iter):
        # E-step: per-point responsibilities, class-restricted for labeled points.
        resp_rows: list[np.ndarray] = []
        alpha_rows: list[np.ndarray] = []
        x_rows: list[np.ndarray] = []
        if d.n_labeled:
            log_r = _component_log_density(model, lab_x) + _log_weights(model)[None, :]
            mask = None if ignore_labels else lab_mask
            if mask is not None:
                log_r = np.where(mask, log_r, -np.inf)
            resp_rows.append(_normalized_resp(log_r, mask))
            alpha_rows.append(np.ones(d.n_labeled))
            x_rows.append(lab_x)
        if d.n_unlabeled and w > 0.0:
            log_r = _component_log_density(model, unl_x) + _log_weights(model)[None, :]
            resp_rows.append(_normalized_resp(log_r, None))
            alpha_rows.append(np.full(d.n_unlabeled, w))
            x_rows.append(unl_x)
        resp = np.concatenate(resp_rows, axis=0)
        alpha = np.concatenate(alpha_rows)
        x = np.concatenate(x_rows, axis=0)

        # M-step: weighted closed-form updates with variance flooring.
        wr = resp * alpha[:, None]
        mass = wr.sum(axis=0)
        weights = mass / mass.sum()
        means = model.means.copy()
        covs = model.covariances.copy()
        for comp in range(k):
            if mass[comp] <= 1e-12:
                continue
            mu = wr[:, comp] @ x / mass[comp]
            diff = x - mu
            means[comp] = mu
            if covariance_type == "diag":
                covs[comp] = np.maximum(wr[:, comp] @ (diff * diff) / mass[comp], floor)
            else:
                cov = (wr[:, comp][:, None] * diff).T @ diff / mass[comp]
                eigval, eigvec = np.linalg.eigh(cov)
                covs[comp] = (eigvec * np.maximum(eigval, floor)) @ eigvec.T

        model = GmmModel(
            weights=weights,
            means=means,
            covariances=covs,
            comp_map=comp_map,
            n_classes=d.n_classes,
            covariance_type=covariance_type,
            unlabeled_weight=w,
        )
        new_objective = loglik(model, d, w)
        trace.append(new_objective)
        delta = new_objective - objective
        objective = new_objective
        if delta < opts.tol:
            break

    return GmmModel(
        weights=model.weights,
        means=model.means,
        covariances=model.covariances,
        comp_map=comp_map,
        n_classes=d.n_classes,
        covariance_type=covariance_type,
        unlabeled_weight=w,
        final_loglik=objective,
        objective_trace=tuple(trace),
    )


def bayes_classify(m: GmmModel, x: np.ndarray) -> int:
    """argmax over classes of the joint density f(x, y); ties go to the
    lowest class id. Log-domain throughout."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("query point contains non-finite values")
    return int(np.argmax(class_log_joint(m, x[None, :])[0]))


def bayes_classify_batch(m: GmmModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InputError("query points contain non-finite values")
    return np.argmax(class_log_joint(m, x), axis=1)


def class_posteriors(m: GmmModel, x: np.ndarray) -> np.ndarray:
    """Normalized per-class joint densities; sums to 1, argmax agrees with
    bayes_classify."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("query point contains non-finite values")
    logj = class_log_joint(m, x[None, :])[0]
    p = np.exp(logj - np.max(logj))
    return p / p.sum()


def class_posteriors_batch(m: GmmModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    logj = class_log_joint(m, x)
    p = np.exp(logj - np.max(logj, axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def sample_joint(m: GmmModel, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) pairs from the model: component by mixing weight, then the
    component's Gaussian; y is the component's class."""
    comps = rng.choice(m.n_components, size=n, p=m.weights / m.weights.sum())
    if m.covariance_type == "diag":
        noise = rng.standard_normal((n, m.dim)) * np.sqrt(m.covariances[comps])
        x = m.means[comps] + noise
    else:
        x = np.empty((n, m.dim))
        std_normal = rng.standard_normal((n, m.dim))
        for k in range(m.n_components):
            rows = np.flatnonzero(comps == k)
            if rows.size:
                chol = np.linalg.cholesky(m.covariances[k])
                x[rows] = m.means[k] + std_normal[rows] @ chol.T
    return x, m.comp_map[comps]


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
