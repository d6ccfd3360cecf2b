"""GAN-based imputers: GAIN and GINN.

GAIN (Yoon, Jordon & van der Schaar, ICML 2018)
    Generator and discriminator are both 2-layer fully-connected networks
    (§VI of the SCIS paper).  The generator sees ``[x̃, m]`` where missing
    slots carry uniform noise; the discriminator sees ``[x̂, h]`` with the
    hint matrix ``h`` revealing most of the true mask.

GINN (Spinelli, Scardapane & Uncini, 2019)
    Graph imputation neural network: a k-NN similarity graph over samples
    (built with networkx, whose quadratic construction cost is exactly why
    the paper's Table IV reports GINN timing out on million-size data), a
    GCN autoencoder generator, and a 3-layer feed-forward critic trained 5
    times per generator step (§VI).

Both implement :class:`~repro.models.base.GenerativeImputer`, the hook SCIS
needs to retrain them under the masking-Sinkhorn loss and to perturb their
generator parameters in SSE.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import IncompleteDataset
from ..nn import Linear, Module, ReLU, Sequential, Sigmoid, masked_bce_loss
from ..obs import HealthMonitor, get_recorder
from ..optim import Adam
from ..tensor import Tensor, no_grad, ops
from .base import GenerativeImputer


def _record_adversarial_step(model_name: str, stats: dict) -> None:
    """Fold one native-game step into the active recorder (no-op if disabled)."""
    recorder = get_recorder()
    if not recorder.enabled:
        return
    recorder.inc(f"gan.{model_name}.adversarial_steps")
    recorder.observe(f"gan.{model_name}.d_loss", stats["d_loss"])
    recorder.observe(f"gan.{model_name}.g_loss", stats["g_loss"])


def _fit_epoch_telemetry(
    monitor: HealthMonitor, model_name: str, epoch: int, epoch_stats: list
) -> None:
    """Per-epoch bookkeeping for a native adversarial ``fit`` loop.

    Feeds the epoch-mean generator loss to the health watchdog (always)
    and emits the ``gan.<model>.epoch`` event (recorder-guarded).
    """
    if not epoch_stats:
        return
    d_loss = float(np.mean([s["d_loss"] for s in epoch_stats]))
    g_loss = float(np.mean([s["g_loss"] for s in epoch_stats]))
    recorder = get_recorder()
    if recorder.enabled:
        recorder.emit(
            f"gan.{model_name}.epoch",
            epoch=epoch,
            d_loss=d_loss,
            g_loss=g_loss,
            steps=len(epoch_stats),
        )
    monitor.observe_loss(f"gan.{model_name}.epoch", g_loss)

__all__ = ["GAINImputer", "GINNImputer", "knn_graph_adjacency"]


class GAINImputer(GenerativeImputer):
    """Generative adversarial imputation network.

    Parameters
    ----------
    hidden:
        Hidden width; defaults to the feature count (the reference
        implementation's choice).
    hint_rate:
        Probability that the hint reveals the true mask bit.
    alpha:
        Weight of the observed-cell reconstruction term in the generator
        loss.
    epochs, batch_size, lr:
        §VI defaults: 100 epochs, batch 128, Adam at 1e-3.
    noise_scale:
        Scale of the uniform noise placed in missing slots (0.01 in the
        reference implementation).
    on_divergence:
        Numerical-health policy for the native ``fit`` loop: ``"warn"``
        records ``health.*`` events, ``"halt"`` stops training at the first
        NaN/divergence/oscillation detection.  The end-of-run verdict is
        stored on :attr:`health_verdict`.
    """

    name = "gain"

    def __init__(
        self,
        hidden: Optional[int] = None,
        hint_rate: float = 0.9,
        alpha: float = 10.0,
        epochs: int = 100,
        batch_size: int = 128,
        lr: float = 1e-3,
        noise_scale: float = 0.01,
        seed: int = 0,
        on_divergence: str = "warn",
    ) -> None:
        super().__init__()
        if not 0.0 <= hint_rate <= 1.0:
            raise ValueError(f"hint_rate must be in [0, 1], got {hint_rate}")
        self.hidden = hidden
        self.hint_rate = hint_rate
        self.alpha = alpha
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.noise_scale = noise_scale
        self.seed = seed
        self.on_divergence = on_divergence
        self.health_verdict: Optional[str] = None
        self.rng = np.random.default_rng(seed)
        self._generator: Optional[Module] = None
        self._discriminator: Optional[Module] = None
        self._g_optimizer: Optional[Adam] = None
        self._d_optimizer: Optional[Adam] = None
        self._column_means: Optional[np.ndarray] = None
        self._n_features: Optional[int] = None

    # ------------------------------------------------------------------
    # GenerativeImputer contract
    # ------------------------------------------------------------------
    @property
    def generator(self) -> Module:
        if self._generator is None:
            raise RuntimeError("call build() or fit() first")
        return self._generator

    def build(self, n_features: int, rng: Optional[np.random.Generator] = None) -> None:
        if rng is not None:
            self.rng = rng
        hidden = self.hidden if self.hidden is not None else max(n_features, 4)
        self._n_features = n_features
        self._generator = Sequential(
            Linear(2 * n_features, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, n_features, rng=self.rng),
            Sigmoid(),
        )
        self._discriminator = Sequential(
            Linear(2 * n_features, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, n_features, rng=self.rng),
            Sigmoid(),
        )
        self._g_optimizer = Adam(self._generator.parameters(), lr=self.lr)
        self._d_optimizer = Adam(self._discriminator.parameters(), lr=self.lr)

    def sample_noise(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, self.noise_scale, size=shape)

    def reconstruct_batch(
        self, values: np.ndarray, mask: np.ndarray, noise: np.ndarray
    ) -> Tensor:
        """Differentiable X̄ = G([m⊙x + (1-m)⊙z, m])."""
        filled = np.nan_to_num(np.asarray(values, dtype=np.float64), nan=0.0)
        mask = np.asarray(mask, dtype=np.float64)
        x_tilde = mask * filled + (1.0 - mask) * noise
        g_input = ops.concat([Tensor(x_tilde), Tensor(mask)], axis=1)
        return self._generator(g_input)

    def adversarial_step(
        self, values: np.ndarray, mask: np.ndarray, rng: np.random.Generator
    ) -> dict:
        filled = np.nan_to_num(np.asarray(values, dtype=np.float64), nan=0.0)
        mask = np.asarray(mask, dtype=np.float64)
        noise = self.sample_noise(mask.shape, rng)
        hint_bits = (rng.random(mask.shape) < self.hint_rate).astype(np.float64)
        hint = hint_bits * mask + 0.5 * (1.0 - hint_bits)

        # --- discriminator step (generator output treated as constant) ---
        with no_grad():
            x_bar = self.reconstruct_batch(filled, mask, noise)
        x_hat = mask * filled + (1.0 - mask) * x_bar.data
        d_input = ops.concat([Tensor(x_hat), Tensor(hint)], axis=1)
        d_prob = self._discriminator(d_input)
        d_loss = masked_bce_loss(d_prob, Tensor(mask), np.ones_like(mask))
        self._d_optimizer.zero_grad()
        d_loss.backward()
        self._d_optimizer.step()

        # --- generator step ---
        x_bar = self.reconstruct_batch(filled, mask, noise)
        x_hat_t = Tensor(mask) * Tensor(filled) + Tensor(1.0 - mask) * x_bar
        d_input = ops.concat([x_hat_t, Tensor(hint)], axis=1)
        d_prob = self._discriminator(d_input)
        # Fool the discriminator on the *missing* entries only.
        adv = -(
            (Tensor(1.0 - mask) * d_prob.clip(1e-8, 1.0 - 1e-8).log()).sum()
            / max((1.0 - mask).sum(), 1.0)
        )
        rec = ((Tensor(mask) * (x_bar - Tensor(filled))) ** 2).sum() / max(mask.sum(), 1.0)
        g_loss = adv + self.alpha * rec
        self._g_optimizer.zero_grad()
        g_loss.backward()
        self._g_optimizer.step()
        stats = {"d_loss": d_loss.item(), "g_loss": g_loss.item()}
        _record_adversarial_step(self.name, stats)
        return stats

    # ------------------------------------------------------------------
    # Imputer API
    # ------------------------------------------------------------------
    def fit(self, dataset: IncompleteDataset) -> "GAINImputer":
        means = dataset.column_means()
        self._column_means = np.where(np.isnan(means), 0.0, means)
        self.build(dataset.n_features)
        values, mask = dataset.values, dataset.mask
        n = dataset.n_samples
        monitor = HealthMonitor(policy=self.on_divergence)
        for epoch in range(self.epochs):
            order = self.rng.permutation(n)
            epoch_stats = []
            for start in range(0, n, self.batch_size):
                index = order[start : start + self.batch_size]
                stats = self.adversarial_step(values[index], mask[index], self.rng)
                epoch_stats.append(stats)
                monitor.check_finite(
                    f"gan.{self.name}.step_g_loss", stats["g_loss"], epoch=epoch
                )
                if monitor.should_halt:
                    break
            _fit_epoch_telemetry(monitor, self.name, epoch, epoch_stats)
            if monitor.should_halt:
                break
        self.health_verdict = monitor.finalize()
        self._fitted = True
        return self

    def reconstruct(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._check_fitted()
        mask = np.asarray(mask, dtype=np.float64)
        noise = self.sample_noise(mask.shape, np.random.default_rng(self.seed))
        with no_grad():
            return self.reconstruct_batch(values, mask, noise).data


def knn_graph_adjacency(
    features: np.ndarray, k: int = 5, self_loops: bool = True
) -> np.ndarray:
    """Symmetric-normalised adjacency of a k-NN similarity graph.

    Builds the graph with networkx (each node connects to its ``k`` nearest
    rows in Euclidean distance) and returns
    ``Â = D^{-1/2} (A + I) D^{-1/2}`` as a dense matrix for the GCN.
    """
    import networkx as nx  # here, so that only GINN pays for the import

    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    sq = (features**2).sum(axis=1)
    distances = sq[:, None] + sq[None, :] - 2.0 * features @ features.T
    np.fill_diagonal(distances, np.inf)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    k_eff = min(k, n - 1)
    if k_eff > 0:
        neighbours = np.argpartition(distances, k_eff - 1, axis=1)[:, :k_eff]
        for i in range(n):
            for j in neighbours[i]:
                graph.add_edge(i, int(j))
    adjacency = nx.to_numpy_array(graph, nodelist=range(n))
    if self_loops:
        adjacency += np.eye(n)
    degree = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
    return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]


class _GCNGenerator(Module):
    """Two-layer GCN autoencoder: X̄ = σ( Â · relu(Â X W1) · W2 )."""

    def __init__(self, n_features: int, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.layer1 = Linear(2 * n_features, hidden, rng=rng)
        self.layer2 = Linear(hidden, n_features, rng=rng)

    def forward(self, adjacency: Tensor, x: Tensor) -> Tensor:
        h = ops.relu(adjacency @ self.layer1(x))
        return ops.sigmoid(adjacency @ self.layer2(h))


class GINNImputer(GenerativeImputer):
    """Graph imputation neural network (adversarially trained GCN).

    ``critic_steps`` defaults to 5 per generator step (§VI).  The similarity
    graph is rebuilt per training batch (and once for reconstruction), which
    reproduces GINN's characteristic O(n²) scaling.
    """

    name = "ginn"

    def __init__(
        self,
        hidden: Optional[int] = None,
        k_neighbours: int = 5,
        critic_steps: int = 5,
        alpha: float = 10.0,
        epochs: int = 100,
        batch_size: int = 128,
        lr: float = 1e-3,
        noise_scale: float = 0.01,
        seed: int = 0,
        on_divergence: str = "warn",
    ) -> None:
        super().__init__()
        self.hidden = hidden
        self.k_neighbours = k_neighbours
        self.critic_steps = critic_steps
        self.alpha = alpha
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.noise_scale = noise_scale
        self.seed = seed
        self.on_divergence = on_divergence
        self.health_verdict: Optional[str] = None
        self.rng = np.random.default_rng(seed)
        self._generator: Optional[_GCNGenerator] = None
        self._critic: Optional[Module] = None
        self._g_optimizer: Optional[Adam] = None
        self._c_optimizer: Optional[Adam] = None
        self._column_means: Optional[np.ndarray] = None

    @property
    def generator(self) -> Module:
        if self._generator is None:
            raise RuntimeError("call build() or fit() first")
        return self._generator

    def build(self, n_features: int, rng: Optional[np.random.Generator] = None) -> None:
        if rng is not None:
            self.rng = rng
        hidden = self.hidden if self.hidden is not None else max(n_features, 8)
        self._n_features = n_features
        self._generator = _GCNGenerator(n_features, hidden, self.rng)
        self._critic = Sequential(
            Linear(n_features, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, hidden, rng=self.rng),
            ReLU(),
            Linear(hidden, 1, rng=self.rng),
            Sigmoid(),
        )
        self._g_optimizer = Adam(self._generator.parameters(), lr=self.lr)
        self._c_optimizer = Adam(self._critic.parameters(), lr=self.lr)

    def sample_noise(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, self.noise_scale, size=shape)

    def _gcn_input(self, values: np.ndarray, mask: np.ndarray, noise: np.ndarray):
        filled = np.nan_to_num(np.asarray(values, dtype=np.float64), nan=0.0)
        mask = np.asarray(mask, dtype=np.float64)
        x_tilde = mask * filled + (1.0 - mask) * noise
        adjacency = knn_graph_adjacency(x_tilde, k=self.k_neighbours)
        g_input = np.concatenate([x_tilde, mask], axis=1)
        return adjacency, g_input, filled, mask

    def reconstruct_batch(
        self, values: np.ndarray, mask: np.ndarray, noise: np.ndarray
    ) -> Tensor:
        adjacency, g_input, _, _ = self._gcn_input(values, mask, noise)
        return self._generator(Tensor(adjacency), Tensor(g_input))

    def adversarial_step(
        self, values: np.ndarray, mask: np.ndarray, rng: np.random.Generator
    ) -> dict:
        noise = self.sample_noise(np.asarray(mask).shape, rng)
        adjacency, g_input, filled, mask = self._gcn_input(values, mask, noise)
        eps = 1e-8

        # --- critic: real rows (few missing) vs imputed rows ---
        with no_grad():
            x_bar = self._generator(Tensor(adjacency), Tensor(g_input)).data
        x_hat = mask * filled + (1.0 - mask) * x_bar
        d_loss_value = 0.0
        for _ in range(self.critic_steps):
            real_scores = self._critic(Tensor(filled))
            fake_scores = self._critic(Tensor(x_hat))
            d_loss = -(
                real_scores.clip(eps, 1 - eps).log().mean()
                + (1.0 - fake_scores).clip(eps, 1 - eps).log().mean()
            )
            self._c_optimizer.zero_grad()
            d_loss.backward()
            self._c_optimizer.step()
            d_loss_value = d_loss.item()

        # --- generator ---
        x_bar_t = self._generator(Tensor(adjacency), Tensor(g_input))
        x_hat_t = Tensor(mask) * Tensor(filled) + Tensor(1.0 - mask) * x_bar_t
        fake_scores = self._critic(x_hat_t)
        adv = -fake_scores.clip(eps, 1 - eps).log().mean()
        rec = ((Tensor(mask) * (x_bar_t - Tensor(filled))) ** 2).sum() / max(mask.sum(), 1.0)
        g_loss = adv + self.alpha * rec
        self._g_optimizer.zero_grad()
        g_loss.backward()
        self._g_optimizer.step()
        stats = {"d_loss": d_loss_value, "g_loss": g_loss.item()}
        _record_adversarial_step(self.name, stats)
        return stats

    def fit(self, dataset: IncompleteDataset) -> "GINNImputer":
        means = dataset.column_means()
        self._column_means = np.where(np.isnan(means), 0.0, means)
        self.build(dataset.n_features)
        values, mask = dataset.values, dataset.mask
        n = dataset.n_samples
        monitor = HealthMonitor(policy=self.on_divergence)
        for epoch in range(self.epochs):
            order = self.rng.permutation(n)
            epoch_stats = []
            for start in range(0, n, self.batch_size):
                index = order[start : start + self.batch_size]
                if index.size < 2:
                    continue
                stats = self.adversarial_step(values[index], mask[index], self.rng)
                epoch_stats.append(stats)
                monitor.check_finite(
                    f"gan.{self.name}.step_g_loss", stats["g_loss"], epoch=epoch
                )
                if monitor.should_halt:
                    break
            _fit_epoch_telemetry(monitor, self.name, epoch, epoch_stats)
            if monitor.should_halt:
                break
        self.health_verdict = monitor.finalize()
        self._fitted = True
        return self

    def reconstruct(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._check_fitted()
        mask = np.asarray(mask, dtype=np.float64)
        noise = self.sample_noise(mask.shape, np.random.default_rng(self.seed))
        with no_grad():
            return self.reconstruct_batch(values, mask, noise).data
