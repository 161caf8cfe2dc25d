"""Reward models mapping edge features to nonpositive log-domain rewards.

All models expose a flat parameter vector so optimizers and checkpoints can
stay model-agnostic.  Connector edges (zero-feature padding from graph
splitting) are pinned to reward exactly 0 and never carry parameters.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph import RoadGraph


class RewardModel:
    kind: str = "?"

    def get_params(self) -> np.ndarray:
        raise NotImplementedError

    def set_params(self, params: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def num_params(self) -> int:
        return self.get_params().shape[0]

    def rewards(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_weighted(self, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_e weights[e] * d reward(e) / d params, as a flat vector."""
        raise NotImplementedError

    def project_(self) -> None:
        """Clamp parameters so every reward stays <= 0."""

    def param_slices(self) -> list[tuple[str, slice]]:
        return [(self.kind, slice(0, self.num_params))]

    def to_payload(self) -> dict:
        raise NotImplementedError

    def clone(self) -> "RewardModel":
        return model_from_payload(self.to_payload())


class LinearReward(RewardModel):
    """Dot product of nonnegative features with nonpositive weights."""

    kind = "linear"

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64).copy()

    def get_params(self) -> np.ndarray:
        return self.weights

    def set_params(self, params: np.ndarray) -> None:
        self.weights = np.asarray(params, dtype=np.float64).copy()

    def rewards(self, features):
        if features.shape[1] != self.weights.shape[0]:
            raise ValidationError(
                f"model expects {self.weights.shape[0]} features, graph has {features.shape[1]}")
        return features @ self.weights

    def grad_weighted(self, features, weights):
        return features.T @ weights

    def project_(self) -> None:
        np.minimum(self.weights, 0.0, out=self.weights)

    def to_payload(self) -> dict:
        return {"kind": self.kind, "weights": self.weights.tolist()}


class DenseNetReward(RewardModel):
    """Small tanh MLP with a negated-softplus head, so outputs live in
    (-inf, 0) without any projection.

    Parameters are stored flat in layer order: (W, b) per hidden layer, then
    the scalar head.
    """

    kind = "dense"

    def __init__(self, input_dim: int, width: int = 18, depth: int = 2,
                 rng_seed: int = 0, params: np.ndarray | None = None):
        if depth < 1:
            raise ValidationError("dense model needs at least one hidden layer")
        self.input_dim = int(input_dim)
        self.width = int(width)
        self.depth = int(depth)
        self._shapes: list[tuple[tuple[int, int], int]] = []
        fan_in = self.input_dim
        for _ in range(self.depth):
            self._shapes.append(((fan_in, self.width), self.width))
            fan_in = self.width
        self._shapes.append(((fan_in, 1), 1))
        n = sum(w[0] * w[1] + b for w, b in self._shapes)
        if params is not None:
            self._params = np.asarray(params, dtype=np.float64).copy()
            if self._params.shape[0] != n:
                raise ValidationError(f"dense model expects {n} params")
        else:
            rng = np.random.default_rng(rng_seed)
            chunks = []
            for (fi, fo), nb in self._shapes:
                chunks.append(rng.normal(0.0, 1.0 / np.sqrt(fi), size=fi * fo))
                chunks.append(np.zeros(nb))
            self._params = np.concatenate(chunks)

    def get_params(self) -> np.ndarray:
        return self._params

    def set_params(self, params: np.ndarray) -> None:
        self._params = np.asarray(params, dtype=np.float64).copy()

    def _layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        i = 0
        for (fi, fo), nb in self._shapes:
            w = self._params[i:i + fi * fo].reshape(fi, fo)
            i += fi * fo
            b = self._params[i:i + nb]
            i += nb
            out.append((w, b))
        return out

    def _forward(self, x: np.ndarray):
        layers = self._layers()
        acts = [x]
        h = x
        for w, b in layers[:-1]:
            h = np.tanh(h @ w + b)
            acts.append(h)
        w, b = layers[-1]
        y = (h @ w + b).ravel()
        return y, acts

    def rewards(self, features):
        if features.shape[1] != self.input_dim:
            raise ValidationError(
                f"model expects {self.input_dim} features, graph has {features.shape[1]}")
        y, _ = self._forward(features)
        # -softplus(y), evaluated stably
        return -(np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y))))

    def grad_weighted(self, features, weights):
        y, acts = self._forward(features)
        layers = self._layers()
        # d(-softplus)/dy = -sigmoid(y)
        gy = (weights * (-1.0 / (1.0 + np.exp(-y))))[:, None]
        grads: list[np.ndarray] = []
        w, b = layers[-1]
        grads.append((acts[-1].T @ gy).ravel())
        grads.append(gy.sum(axis=0))
        gh = gy @ w.T
        for li in range(self.depth - 1, -1, -1):
            w, b = layers[li]
            ga = gh * (1.0 - acts[li + 1] ** 2)
            grads.append((acts[li].T @ ga).reshape(-1))
            grads.append(ga.sum(axis=0))
            gh = ga @ w.T
        flat = []
        for li in range(len(grads) // 2):
            flat.append(grads[-2 * li - 2])
            flat.append(grads[-2 * li - 1])
        return np.concatenate(flat)

    def to_payload(self) -> dict:
        return {"kind": self.kind, "input_dim": self.input_dim, "width": self.width,
                "depth": self.depth, "params": self._params.tolist()}


class SparsePerEdgeReward(RewardModel):
    """One free parameter per non-connector edge on top of a frozen baseline
    table.  At initialization (all zeros) it reproduces the baseline exactly.
    Projection keeps baseline + param <= 0, so a parameter may go positive to
    cancel an overpriced baseline entry.  L1 strength feeds the training
    gradient as a subgradient term.
    """

    kind = "sparse"

    def __init__(self, num_edges: int, baseline: np.ndarray | None = None,
                 connector_flags: np.ndarray | None = None, l1_coeff: float = 1e-7,
                 params: np.ndarray | None = None):
        self.num_edges = int(num_edges)
        if baseline is None:
            baseline = np.zeros(self.num_edges)
        self.baseline = np.asarray(baseline, dtype=np.float64).copy()
        if self.baseline.shape[0] != self.num_edges:
            raise ValidationError("baseline table length != edge count")
        if np.any(self.baseline > 0):
            raise ValidationError("baseline rewards must be <= 0")
        if connector_flags is None:
            connector_flags = np.zeros(self.num_edges, dtype=bool)
        connector_flags = np.asarray(connector_flags, dtype=bool)
        self.param_index = np.full(self.num_edges, -1, dtype=np.int64)
        free = np.nonzero(~connector_flags)[0]
        self.param_index[free] = np.arange(free.shape[0])
        self.free_edges = free
        self.l1_coeff = float(l1_coeff)
        if params is not None:
            self._params = np.asarray(params, dtype=np.float64).copy()
            if self._params.shape[0] != free.shape[0]:
                raise ValidationError(f"sparse model expects {free.shape[0]} params")
        else:
            self._params = np.zeros(free.shape[0])

    @classmethod
    def for_graph(cls, g: RoadGraph, baseline: np.ndarray | None = None,
                  l1_coeff: float = 1e-7) -> "SparsePerEdgeReward":
        return cls(g.num_edges, baseline=baseline,
                   connector_flags=g.connector_flags, l1_coeff=l1_coeff)

    def get_params(self) -> np.ndarray:
        return self._params

    def set_params(self, params: np.ndarray) -> None:
        self._params = np.asarray(params, dtype=np.float64).copy()

    def _check(self, features) -> None:
        if features.shape[0] != self.num_edges:
            raise ValidationError(
                f"sparse model covers {self.num_edges} edges, got {features.shape[0]}")

    def rewards(self, features):
        self._check(features)
        r = self.baseline.copy()
        r[self.free_edges] += self._params
        return r

    def grad_weighted(self, features, weights):
        self._check(features)
        # each parameter has one edge: its gradient is 0.0 + that edge's weight
        return np.zeros_like(self._params) + weights[self.free_edges]

    def project_(self) -> None:
        cap = -self.baseline[self.free_edges]
        np.minimum(self._params, cap, out=self._params)

    def to_payload(self) -> dict:
        return {"kind": self.kind, "num_edges": self.num_edges,
                "baseline": self.baseline.tolist(),
                "connector_flags": (self.param_index < 0).tolist(),
                "l1_coeff": self.l1_coeff, "params": self._params.tolist()}


class CompositeReward(RewardModel):
    """Elementwise sum of component models; parameters concatenate."""

    kind = "composite"

    def __init__(self, components: list[RewardModel]):
        if not components:
            raise ValidationError("composite model needs components")
        self.components = components

    def get_params(self) -> np.ndarray:
        return np.concatenate([c.get_params() for c in self.components])

    def set_params(self, params: np.ndarray) -> None:
        i = 0
        for c in self.components:
            n = c.num_params
            c.set_params(params[i:i + n])
            i += n

    def rewards(self, features):
        out = self.components[0].rewards(features)
        for c in self.components[1:]:
            out = out + c.rewards(features)
        return out

    def grad_weighted(self, features, weights):
        return np.concatenate([c.grad_weighted(features, weights)
                               for c in self.components])

    def project_(self) -> None:
        for c in self.components:
            c.project_()

    def param_slices(self) -> list[tuple[str, slice]]:
        out = []
        i = 0
        for c in self.components:
            for kind, sl in c.param_slices():
                out.append((kind, slice(i + sl.start, i + sl.stop)))
            i += c.num_params
        return out

    def to_payload(self) -> dict:
        return {"kind": self.kind,
                "components": [c.to_payload() for c in self.components]}


# ---------------------------------------------------------------------------


def edge_rewards(model: RewardModel, g: RoadGraph) -> np.ndarray:
    """Per-edge reward table; connector edges pinned to exactly 0."""
    r = model.rewards(g.features)
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != g.num_edges:
        raise ValidationError("model returned wrong number of edge rewards")
    r[g.connector_flags] = 0.0
    return r


def backprop(model: RewardModel, g: RoadGraph, residual: np.ndarray) -> np.ndarray:
    """Chain residual-valued edge weights through the model:
    sum_e residual(e) * d r(e)/d theta, plus the L1 subgradient for sparse
    components (shrinkage enters the ascent direction as -l1 * sign(theta)).
    """
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape[0] != g.num_edges:
        raise ValidationError("residual length != edge count")
    if not np.all(np.isfinite(residual)):
        raise ValidationError("residual must be finite")
    w = residual.copy()
    w[g.connector_flags] = 0.0
    grad = model.grad_weighted(g.features, w)
    grad = grad + _l1_term(model)
    return grad


def _l1_term(model: RewardModel) -> np.ndarray:
    if isinstance(model, CompositeReward):
        return np.concatenate([_l1_term(c) for c in model.components])
    if isinstance(model, SparsePerEdgeReward):
        return -model.l1_coeff * np.sign(model.get_params())
    return np.zeros(model.num_params)


def project_nonpositive(model: RewardModel) -> RewardModel:
    model.project_()
    return model


def model_from_payload(payload: dict) -> RewardModel:
    kind = payload.get("kind")
    if kind == "linear":
        return LinearReward(np.asarray(payload["weights"]))
    if kind == "dense":
        return DenseNetReward(payload["input_dim"], payload["width"], payload["depth"],
                              params=np.asarray(payload["params"]))
    if kind == "sparse":
        return SparsePerEdgeReward(
            payload["num_edges"], baseline=np.asarray(payload["baseline"]),
            connector_flags=np.asarray(payload["connector_flags"], dtype=bool),
            l1_coeff=payload["l1_coeff"], params=np.asarray(payload["params"]))
    if kind == "composite":
        return CompositeReward([model_from_payload(p) for p in payload["components"]])
    raise ValidationError(f"unknown model kind {kind!r}")
