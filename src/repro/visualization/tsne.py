"""A small NumPy t-SNE implementation (van der Maaten & Hinton, 2008).

The paper uses t-SNE purely as a visualisation tool for Figs. 6 and 8.  This
implementation follows the original exact algorithm (pairwise affinities with
per-point perplexity calibration, gradient descent with early exaggeration
and momentum) and is adequate for the few hundred points those figures show.
It returns coordinates; rendering them is left to the caller (the benchmark
scripts print summary statistics instead of images).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.distance import pairwise_distances

__all__ = ["TSNE", "TSNEConfig"]


@dataclass(frozen=True)
class TSNEConfig:
    """Hyperparameters of the exact t-SNE optimisation."""

    n_components: int = 2
    perplexity: float = 30.0
    learning_rate: float = 100.0
    iterations: int = 400
    early_exaggeration: float = 4.0
    exaggeration_iterations: int = 100
    initial_momentum: float = 0.5
    final_momentum: float = 0.8
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")
        if self.perplexity <= 0:
            raise ValueError("perplexity must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


class TSNE:
    """Exact t-SNE projection of high-dimensional embeddings."""

    def __init__(self, config: TSNEConfig | None = None) -> None:
        self.config = config or TSNEConfig()

    # --------------------------------------------------------------- affinity
    @staticmethod
    def _binary_search_beta(distances_row: np.ndarray, target_entropy: float,
                            tolerance: float = 1e-5,
                            max_iterations: int = 50) -> np.ndarray:
        """Find the Gaussian precision giving the target perplexity for one row."""
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        probabilities = np.zeros_like(distances_row)
        for _ in range(max_iterations):
            probabilities = np.exp(-distances_row * beta)
            total = probabilities.sum()
            if total <= 0:
                probabilities = np.full_like(distances_row,
                                             1.0 / distances_row.size)
                break
            probabilities /= total
            entropy = -np.sum(probabilities
                              * np.log(np.maximum(probabilities, 1e-12)))
            difference = entropy - target_entropy
            if abs(difference) < tolerance:
                break
            if difference > 0:
                beta_min = beta
                beta = beta * 2.0 if np.isinf(beta_max) else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if np.isinf(beta_min) else (beta + beta_min) / 2.0
        return probabilities

    def _joint_probabilities(self, embeddings: np.ndarray) -> np.ndarray:
        n = embeddings.shape[0]
        squared = pairwise_distances(embeddings, embeddings, squared=True)
        perplexity = min(self.config.perplexity, max((n - 1) / 3.0, 1.0))
        target_entropy = np.log(perplexity)
        conditional = np.zeros((n, n))
        for i in range(n):
            mask = np.arange(n) != i
            conditional[i, mask] = self._binary_search_beta(squared[i, mask],
                                                            target_entropy)
        joint = (conditional + conditional.T) / (2.0 * n)
        return np.maximum(joint, 1e-12)

    # ------------------------------------------------------------ optimisation
    def fit_transform(self, embeddings: np.ndarray) -> np.ndarray:
        """Project the rows of ``embeddings`` to ``n_components`` dimensions."""
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[0] < 3:
            raise ValueError("need a (n >= 3, dim) array to run t-SNE")
        config = self.config
        rng = np.random.default_rng(config.seed)
        n = embeddings.shape[0]

        p = self._joint_probabilities(embeddings)
        p_exaggerated = p * config.early_exaggeration

        y = rng.normal(0.0, 1e-4, size=(n, config.n_components))
        velocity = np.zeros_like(y)
        gains = np.ones_like(y)

        for iteration in range(config.iterations):
            affinity = 1.0 / (1.0 + pairwise_distances(y, y, squared=True))
            np.fill_diagonal(affinity, 0.0)
            q = np.maximum(affinity / affinity.sum(), 1e-12)

            current_p = (p_exaggerated
                         if iteration < config.exaggeration_iterations else p)
            pq = (current_p - q) * affinity
            gradient = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)

            momentum = (config.initial_momentum
                        if iteration < config.exaggeration_iterations
                        else config.final_momentum)
            same_sign = np.sign(gradient) == np.sign(velocity)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            gains = np.maximum(gains, 0.01)
            velocity = momentum * velocity - config.learning_rate * gains * gradient
            y = y + velocity
            y = y - y.mean(axis=0)
        return y
