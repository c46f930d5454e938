"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

A Tensor wraps an ndarray plus the bookkeeping needed to backpropagate:
the parent tensors it was computed from and a closure that maps the
gradient at the node to gradients at its parents.  Graphs are built
implicitly by calling the op functions in this module; `backward` walks
the recorded graph once in reverse creation order (creation order is a
topological order, since an op's inputs always exist before its output).

Everything is float64 and row-major.  Supported shapes are 0-d scalars,
1-d vectors, and 2-d matrices, which is all the sequence models here
need.  Ops check shapes eagerly and raise ShapeError with both offending
shapes in the message.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "tensor",
    "parameter",
    "no_grad",
    "add",
    "matmul",
    "linear",
    "concat",
    "cols",
    "tanh",
    "softmax",
    "lstm_step",
    "lstm_sequence",
    "embedding",
    "cross_entropy",
    "PROB_FLOOR",
    "backward",
    "glorot",
    "finite_diff_check",
]


class ShapeError(ValueError):
    """Raised when an op receives arrays whose shapes cannot combine."""


_ids = itertools.count()
_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A node in the computation graph.

    `parents` and `_backward` are empty/None for leaves (constants and
    parameters).  `needs_grad` marks nodes on a path from a parameter,
    so backward can skip constant subgraphs entirely.
    """

    __slots__ = ("data", "parents", "_backward", "needs_grad", "name", "_id")

    def __init__(self, data, parents=(), backward_fn=None, needs_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = parents
        self._backward = backward_fn
        self.needs_grad = needs_grad
        self.name = name
        self._id = next(_ids)

    def __repr__(self):
        tag = self.name or ("param" if self.needs_grad and not self.parents else "tensor")
        return f"Tensor({tag}, shape={self.data.shape})"


def tensor(data) -> Tensor:
    """Wrap data as a constant leaf (no gradient flows into it)."""
    return Tensor(data)


def parameter(data, name: str) -> Tensor:
    """Wrap data as a trainable leaf; `name` keys checkpoints and optimizer errors."""
    return Tensor(data, needs_grad=True, name=name)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Build an op output, recording the graph only when some input needs it."""
    if _grad_enabled and any(p.needs_grad for p in parents):
        return Tensor(data, parents, backward_fn, needs_grad=True)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.data.shape} with {b.data.shape}")
    ash, bsh = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _node(out, (a, b), bwd)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _node(ad @ bd, (a, b), bwd)


def linear(x, w, b=None) -> Tensor:
    """The affine map x @ w.T (+ b) of (B, I) rows by (O, I) weights and an (O,) bias."""
    x, w = _coerce(x), _coerce(w)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"linear: input {xd.shape} does not fit weights {wd.shape}")
    if b is None:
        return _node(xd @ wd.T, (x, w), lambda g: (g @ wd, g.T @ xd))
    b = _coerce(b)
    if b.data.shape != (wd.shape[0],):
        raise ShapeError(f"linear: bias {b.data.shape} for weights {wd.shape}")
    return _node(xd @ wd.T + b.data, (x, w, b), lambda g: (g @ wd, g.T @ xd, g.sum(axis=0)))


def concat(parts: Sequence, axis: int = 1) -> Tensor:
    """Concatenate 2-d tensors along `axis` (0: stack rows, 1: widen columns)."""
    parts = [_coerce(p) for p in parts]
    shapes = [p.data.shape for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    sizes = [s[axis] for s in shapes]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        if axis == 0:
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _node(out, tuple(parts), bwd)


def cols(a, start: int, stop: int) -> Tensor:
    """Select the column block [start, stop) of a 2-d tensor."""
    a = _coerce(a)
    ash = a.data.shape
    if a.data.ndim != 2 or not (0 <= start < stop <= ash[1]):
        raise ShapeError(f"cols: bad slice [{start}:{stop}) for shape {ash}")

    def bwd(g):
        full = np.zeros(ash)
        full[:, start:stop] = g
        return (full,)

    return _node(a.data[:, start:stop].copy(), (a,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch on sign so exp never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(a) -> Tensor:
    a = _coerce(a)
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), bwd)


def softmax(a) -> Tensor:
    """Softmax over the last axis; rows are nonnegative and sum to 1."""
    a = _coerce(a)
    x = a.data
    if x.ndim == 0:
        raise ShapeError("softmax: scalar input has no axis")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), bwd)


def _lstm_hidden(op: str, xproj: Tensor, wh: Tensor) -> int:
    """Hidden size H implied by a (., 4H) input projection and (4H, H) weights."""
    wsh, xsh = wh.data.shape, xproj.data.shape
    if len(wsh) != 2 or wsh[0] != 4 * wsh[1] or len(xsh) != 2 or xsh[1] != wsh[0]:
        raise ShapeError(f"{op}: input projection {xsh} does not fit recurrent weights {wsh}")
    return wsh[1]


def _lstm_cell(pre: np.ndarray, c: np.ndarray, H: int):
    """One step from (B, 4H) pre-activations packed [input; forget; output; candidate].

    Returns the gate values, the next cell state c' and tanh(c'); the
    next hidden state is the output gate times tanh(c').
    """
    act = np.empty_like(pre)
    act[:, :3 * H] = _sigmoid(pre[:, :3 * H])
    act[:, 3 * H:] = np.tanh(pre[:, 3 * H:])
    c_next = act[:, H:2 * H] * c + act[:, :H] * act[:, 3 * H:]
    return act, c_next, np.tanh(c_next)


def _lstm_cell_grads(act, c_prev, tc, dh, dc, whd):
    """Backward of one `_lstm_cell` step.

    `dh` and `dc` are the gradients at the step's h' and c' from outside
    the step; the path through h' = o * tanh(c') is added here.  Returns
    the gradients at the pre-activations, the previous h and previous c.
    """
    H = tc.shape[1]
    i, f, o, g = act[:, :H], act[:, H:2 * H], act[:, 2 * H:3 * H], act[:, 3 * H:]
    dc = dc + dh * o * (1.0 - tc * tc)
    dpre = np.concatenate([dc * g * i * (1.0 - i),
                           dc * c_prev * f * (1.0 - f),
                           dh * tc * o * (1.0 - o),
                           dc * i * (1.0 - g * g)], axis=1)
    return dpre, dpre @ whd, dc * f


def lstm_step(xproj, state, wh) -> Tensor:
    """Advance B rows of packed LSTM states [h | c] by one step.

    `xproj` is the (B, 4H) input projection x @ Wx.T + b, gates packed as
    [input; forget; output; candidate]; `state` is (B, 2H) and `wh` the
    (4H, H) recurrent weights.  Returns the next (B, 2H) state:

        i, f, o = sigmoid(.), g = tanh(.)   of xproj + h @ Wh.T
        c' = f * c + i * g,  h' = o * tanh(c')
    """
    xproj, state, wh = _coerce(xproj), _coerce(state), _coerce(wh)
    H = _lstm_hidden("lstm_step", xproj, wh)
    if state.data.shape != (xproj.data.shape[0], 2 * H):
        raise ShapeError(f"lstm_step: state {state.data.shape} for input projection "
                         f"{xproj.data.shape}, expected {(xproj.data.shape[0], 2 * H)}")
    whd = wh.data
    h, c = state.data[:, :H], state.data[:, H:]
    act, c_next, tc = _lstm_cell(xproj.data + h @ whd.T, c, H)

    def bwd(grad):
        dpre, dh, dc = _lstm_cell_grads(act, c, tc, grad[:, :H], grad[:, H:], whd)
        return dpre, np.concatenate([dh, dc], axis=1), dpre.T @ h

    out = np.concatenate([act[:, 2 * H:3 * H] * tc, c_next], axis=1)
    return _node(out, (xproj, state, wh), bwd)


def _packing(lengths, n: int, reverse: bool):
    """Row order for stepping through stacked sequences: `perm`, its inverse and
    the (lo, hi) range of rows x[perm] that each step advances.  Sequences rank
    longest first, so a step's rows are its running sequences in rank order."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.sum() != n or (lengths < 1).any():
        raise ShapeError(f"lstm_sequence: lengths {lengths.tolist()} do not split {n} rows")
    rank = np.argsort(-lengths, kind="stable")
    size, start = lengths[rank, None], (np.cumsum(lengths) - lengths)[rank, None]
    steps = np.arange(lengths.max(initial=0))
    rows = start + (size - 1 - steps if reverse else steps)
    running = steps < size
    perm = rows.T[running.T]
    offsets = [0] + np.cumsum(running.sum(axis=0)).tolist()
    return perm, np.argsort(perm), list(zip(offsets, offsets[1:]))


def lstm_sequence(xproj, wh, lengths, reverse: bool = False) -> Tensor:
    """(N, H) hidden states, in input order, of an LSTM run from the zero state over
    (N, 4H) input projections that stack sequences of `lengths` rows each; with
    `reverse` each runs from its last row.  The running
    sequences advance as the rows of one `lstm_step` update per step, and
    backpropagation through time stays inside this one node."""
    xproj, wh = _coerce(xproj), _coerce(wh)
    H = _lstm_hidden("lstm_sequence", xproj, wh)
    n = xproj.data.shape[0]
    perm, inverse, steps = _packing(lengths, n, reverse)
    whd, x = wh.data, xproj.data[perm]
    acts, (tcs, hs, h_prev, c_prev) = np.empty((n, 4 * H)), np.empty((4, n, H))
    h = c = np.zeros((n, H))
    for lo, hi in steps:
        h, c = h[:hi - lo], c[:hi - lo]  # sequences that ended drop out
        act, c_next, tc = _lstm_cell(x[lo:hi] + h @ whd.T, c, H)
        h_prev[lo:hi], c_prev[lo:hi], acts[lo:hi], tcs[lo:hi] = h, c, act, tc
        h, c = act[:, 2 * H:3 * H] * tc, c_next
        hs[lo:hi] = h

    def bwd(grad):
        grad, dpre = grad[perm], np.empty((n, 4 * H))
        dh, dc = np.zeros((2, n, H))
        for lo, hi in reversed(steps):
            k = hi - lo                  # sequences at their last step join at zero
            dpre[lo:hi], dh[:k], dc[:k] = _lstm_cell_grads(
                acts[lo:hi], c_prev[lo:hi], tcs[lo:hi], grad[lo:hi] + dh[:k], dc[:k], whd)
        return dpre[inverse], dpre.T @ h_prev

    return _node(hs[inverse], (xproj, wh), bwd)


def embedding(table, ids) -> Tensor:
    """Gather rows `ids` from a (vocab, dim) table; gradient scatters back."""
    table = _coerce(table)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-d, got {table.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding: id out of range for table with {table.data.shape[0]} rows")
    tshape = table.data.shape

    def bwd(g):
        full = np.zeros(tshape)
        np.add.at(full, idx, g)
        return (full,)

    return _node(table.data[idx], (table,), bwd)


PROB_FLOOR = 1e-12


def cross_entropy(probs, target) -> Tensor:
    """Weighted negative log-likelihood: -sum(target * log(max(probs, PROB_FLOOR))).

    `target` is treated as a constant weight array (rows need not sum to 1);
    no gradient flows into it.  The floor guards log(0); where probs fall
    below it the local derivative is zero, matching the clipped objective.
    """
    probs = _coerce(probs)
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if t.shape != probs.data.shape:
        raise ShapeError(f"cross_entropy: target {t.shape} vs probs {probs.data.shape}")
    p = np.maximum(probs.data, PROB_FLOOR)
    out = np.asarray(-(t * np.log(p)).sum())
    live = probs.data >= PROB_FLOOR

    def bwd(g):
        return (np.where(live, -t / p, 0.0) * g,)

    return _node(out, (probs,), bwd)


def backward(root: Tensor, wrt: Iterable[Tensor]) -> dict:
    """Backpropagate from a scalar root; returns {tensor: gradient} for `wrt`.

    Every tensor in `wrt` gets an entry; tensors the root does not depend on
    get zeros.  Visits each reachable node exactly once, children before
    parents (reverse creation order is a reverse topological order).
    """
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.data.shape}")
    wrt = list(wrt)
    keep = set(id(t) for t in wrt)

    # Collect the reachable grad-bearing subgraph.
    seen = {id(root)}
    nodes = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if p.needs_grad and id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    nodes.sort(key=lambda t: t._id, reverse=True)

    grads = {id(root): np.ones_like(root.data)}
    for node in nodes:
        g = grads.get(id(node))
        if g is None:
            continue
        if id(node) not in keep:
            del grads[id(node)]
        if node._backward is None:
            continue
        pgrads = node._backward(g)
        for p, pg in zip(node.parents, pgrads):
            if not p.needs_grad:
                continue
            acc = grads.get(id(p))
            # Never mutate: closures may hand back views of g.
            grads[id(p)] = pg if acc is None else acc + pg

    return {t: grads.get(id(t), np.zeros_like(t.data)) for t in wrt}


def glorot(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Xavier/Glorot uniform init of a (fan_out, fan_in) weight: U(-a, a),
    a = sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = shape
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def finite_diff_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                      num_coords: int = 50, h: float = 1e-6,
                      rng: np.random.Generator | None = None) -> float:
    """Compare backward gradients against central finite differences.

    Independently of the backward pass, evaluates loss_fn forward-only at
    +/-h perturbations of randomly sampled parameter coordinates and
    returns the maximum relative error observed.  The denominator is
    floored at 1e-3 so that coordinates whose true derivative is below
    finite-difference resolution read as agreement, not noise.
    """
    rng = rng or np.random.default_rng(0)
    analytic = backward(loss_fn(), params)
    worst = 0.0
    sized = [p for p in params if p.data.size > 0]
    for _ in range(num_coords):
        p = sized[rng.integers(len(sized))]
        flat = p.data.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        with no_grad():
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
        fd = (up - down) / (2.0 * h)
        an = float(analytic[p].reshape(-1)[i])
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
        worst = max(worst, err)
    return worst
