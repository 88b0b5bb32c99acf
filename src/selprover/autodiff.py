"""Parameter store, Adam over named gradients, and a small autodiff tape.

``clip_gradients`` and ``adam_step`` take gradients as a dict of dense
arrays keyed by parameter name. The embedding pretrainer, the prover's
training loss and the generator's m-step all write theirs in closed form.

The tape is a tiny reverse-mode autodiff that no training path uses any
more: the tests build their reference GRU on it. ``Value`` wraps an
ndarray, remembers its parents and a backward closure, and
``Tape.backward`` runs the closures in reverse topological order. Scalar
results are 0-d arrays. Only what that reference and the finite-difference
probes need is implemented; this is not a general tensor library.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Value:
    """Node in the computation graph: data, grad, and a backward closure."""

    __slots__ = ("data", "grad", "_parents", "_backward", "name")

    def __init__(self, data, parents: tuple = (), backward=None, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape}, name={self.name!r})"

    # operators delegate to module functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a, b) -> Value:
    a, b = as_value(a), as_value(b)
    out = Value(a.data + b.data, (a, b))

    def bw(g):
        a.grad += _unbroadcast(g, a.data.shape)
        b.grad += _unbroadcast(g, b.data.shape)

    out._backward = bw
    return out


def sub(a, b) -> Value:
    a, b = as_value(a), as_value(b)
    out = Value(a.data - b.data, (a, b))

    def bw(g):
        a.grad += _unbroadcast(g, a.data.shape)
        b.grad -= _unbroadcast(g, b.data.shape)

    out._backward = bw
    return out


def mul(a, b) -> Value:
    a, b = as_value(a), as_value(b)
    out = Value(a.data * b.data, (a, b))

    def bw(g):
        a.grad += _unbroadcast(g * b.data, a.data.shape)
        b.grad += _unbroadcast(g * a.data, b.data.shape)

    out._backward = bw
    return out


def matmul(a: Value, b: Value) -> Value:
    a, b = as_value(a), as_value(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul is 2-d only, got {a.data.shape} @ {b.data.shape}")
    out = Value(a.data @ b.data, (a, b))

    def bw(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    out._backward = bw
    return out


def vsum(a: Value, axis=None) -> Value:
    a = as_value(a)
    out = Value(a.data.sum(axis=axis), (a,))

    def bw(g):
        if axis is None:
            a.grad += np.broadcast_to(g, a.data.shape)
        else:
            a.grad += np.broadcast_to(np.expand_dims(g, axis), a.data.shape)

    out._backward = bw
    return out


def log(a: Value) -> Value:
    a = as_value(a)
    out = Value(np.log(a.data), (a,))

    def bw(g):
        a.grad += g / a.data

    out._backward = bw
    return out


def sigmoid(a: Value) -> Value:
    a = as_value(a)
    s = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    out = Value(s, (a,))

    def bw(g):
        a.grad += g * out.data * (1.0 - out.data)

    out._backward = bw
    return out


def tanh(a: Value) -> Value:
    a = as_value(a)
    out = Value(np.tanh(a.data), (a,))

    def bw(g):
        a.grad += g * (1.0 - out.data * out.data)

    out._backward = bw
    return out


def concat_cols(a: Value, b: Value) -> Value:
    a, b = as_value(a), as_value(b)
    out = Value(np.concatenate([a.data, b.data], axis=1), (a, b))
    na = a.data.shape[1]

    def bw(g):
        a.grad += g[:, :na]
        b.grad += g[:, na:]

    out._backward = bw
    return out


def gather_rows(a: Value, idx) -> Value:
    idx = np.asarray(idx, dtype=np.int64)
    out = Value(a.data[idx], (a,))

    def bw(g):
        np.add.at(a.grad, idx, g)

    out._backward = bw
    return out


def sum_list(values: Sequence[Value]) -> Value:
    """Fused sum of scalar values; avoids deep add chains."""
    vals = [as_value(v) for v in values]
    out = Value(np.sum([v.data for v in vals]) if vals else 0.0, tuple(vals))

    def bw(g):
        for v in vals:
            v.grad += _unbroadcast(np.asarray(g), v.data.shape)

    out._backward = bw
    return out


def softmax(a: Value, axis: int = -1) -> Value:
    a = as_value(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Value(s, (a,))

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        a.grad += s * (g - dot)

    out._backward = bw
    return out


def cross_entropy_logits(logits: Value, targets) -> Value:
    """Mean negative log-softmax at the target index per row."""
    logits = as_value(logits)
    t = np.asarray(targets, dtype=np.int64)
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = Value(-logp[np.arange(n), t].mean(), (logits,))

    def bw(g):
        soft = np.exp(logp)
        soft[np.arange(n), t] -= 1.0
        logits.grad += (float(g) / n) * soft

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# parameter store + tape
# ---------------------------------------------------------------------------


class ParameterStore:
    """Named dense float64 parameter arrays plus optimizer state.

    ``step_count`` is global across parameters and drives Adam bias
    correction; ``rejected_updates`` counts per-parameter updates skipped
    because their gradient was not finite.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.rejected_updates = 0
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already exists")
        self.params[name] = np.asarray(array, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.params[name]
        except KeyError:
            raise KeyError(f"unknown parameter: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def save(self, path) -> None:
        """Exact round-trip dump: parameters, optimizer state, counters."""
        blobs = {f"p_{k}": v for k, v in self.params.items()}
        blobs.update({f"m_{k}": v for k, v in self._adam_m.items()})
        blobs.update({f"v_{k}": v for k, v in self._adam_v.items()})
        blobs["_meta"] = np.array([self.step_count, self.rejected_updates],
                                  dtype=np.int64)
        np.savez(path, **blobs)

    @classmethod
    def load(cls, path) -> "ParameterStore":
        store = cls()
        with np.load(path) as data:
            for key in data.files:
                if key == "_meta":
                    meta = data[key]
                    store.step_count = int(meta[0])
                    store.rejected_updates = int(meta[1])
                elif key.startswith("p_"):
                    store.params[key[2:]] = data[key]
                elif key.startswith("m_"):
                    store._adam_m[key[2:]] = data[key]
                elif key.startswith("v_"):
                    store._adam_v[key[2:]] = data[key]
        return store


class Tape:
    """Tracks leaf parameters touched by one recorded computation."""

    def __init__(self, store: ParameterStore):
        self.store = store
        self.leaves: dict[str, Value] = {}

    def leaf(self, name: str) -> Value:
        v = self.leaves.get(name)
        if v is None:
            v = Value(self.store[name], name=name)
            self.leaves[name] = v
        return v

    def rows(self, name: str, idx) -> Value:
        return gather_rows(self.leaf(name), idx)

    def backward(self, root: Value) -> None:
        """Reverse-topological sweep seeding d(root)/d(root) = 1."""
        if root.data.shape != ():
            raise ValueError("backward expects a scalar root")
        topo: list[Value] = []
        seen: set[int] = set()
        stack: list[tuple[Value, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(root.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def gradients(self) -> dict[str, np.ndarray]:
        return {name: leaf.grad for name, leaf in self.leaves.items()}

def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale the gradients in place so their global norm is <= max_norm.

    Returns the norm before clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(store: ParameterStore, grads: dict[str, np.ndarray], lr: float,
              betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8) -> None:
    """Adam with bias correction over parameters holding nonzero gradients.

    A parameter whose gradient contains NaN/Inf is skipped for this step and
    counted in ``store.rejected_updates``.
    """
    b1, b2 = betas
    store.step_count += 1
    t = store.step_count
    for name, g in grads.items():
        if not np.any(g):
            continue
        if not np.all(np.isfinite(g)):
            store.rejected_updates += 1
            continue
        m = store._adam_m.get(name)
        if m is None:
            m = store._adam_m[name] = np.zeros_like(store.params[name])
        v = store._adam_v.get(name)
        if v is None:
            v = store._adam_v[name] = np.zeros_like(store.params[name])
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        store.params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def finite_difference_check(f: Callable[[ParameterStore, Tape], Value],
                            store: ParameterStore, eps: float = 1e-5,
                            max_coords: int = 40,
                            rng: np.random.Generator | None = None) -> float:
    """Max relative error between tape gradients and central differences.

    ``f(store, tape)`` must rebuild the same scalar deterministically.
    Coordinates are sampled per touched parameter. The caller is responsible
    for probing away from min/max ties, where the subgradient is one of the
    valid choices but the two-sided difference straddles the kink.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tape = Tape(store)
    out = f(store, tape)
    tape.backward(out)
    grads = {k: v.copy() for k, v in tape.gradients().items()}
    names = sorted(grads)
    worst = 0.0
    for name in names:
        flat = store.params[name].reshape(-1)
        n = flat.size
        k = min(max_coords // max(1, len(names)) + 1, n)
        coords = rng.choice(n, size=k, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = f(store, Tape(store)).item()
            flat[c] = orig - eps
            lo = f(store, Tape(store)).item()
            flat[c] = orig
            fd = (hi - lo) / (2.0 * eps)
            g = float(grads[name].reshape(-1)[c])
            err = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
            worst = max(worst, err)
    return worst
