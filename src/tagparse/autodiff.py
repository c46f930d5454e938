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
    "linear",
    "concat",
    "cols",
    "tanh",
    "softmax",
    "lstm_sequence",
    "attention_decoder",
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


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a) -> Tensor:
    """Softmax over the last axis; rows are nonnegative and sum to 1."""
    a = _coerce(a)
    if a.data.ndim == 0:
        raise ShapeError("softmax: scalar input has no axis")
    out = _softmax(a.data)

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


def _lstm_cell_derivatives(act, c_prev, tc):
    """Local derivatives of `_lstm_cell` steps, one row per state, for
    `_lstm_cell_grads`.

    Computed for all of a backward pass's steps at once, before its time
    loop.  Returns the (n, 4H) factors from the gradient at c' (at h' for
    the output gate) to each gate's pre-activation, and the (n, H) factor
    o * (1 - tanh(c')^2) from h' to c'.
    """
    H = tc.shape[1]
    i, f, o, g = act[:, :H], act[:, H:2 * H], act[:, 2 * H:3 * H], act[:, 3 * H:]
    return (np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                            tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1),
            o * (1.0 - tc * tc))


def _lstm_cell_grads(gate_d, cell_d, f, dh, dc, whd):
    """Backward of one `_lstm_cell` step from its `_lstm_cell_derivatives`
    rows and its forget gate `f`.

    `dh` and `dc` are the gradients at the step's h' and c' from outside
    the step; the path through h' = o * tanh(c') is added here.  Returns
    the gradients at the pre-activations, the previous h and previous c.
    """
    dc = dc + dh * cell_d
    dpre = np.concatenate([dc, dc, dh, dc], axis=1)
    dpre *= gate_d
    return dpre, dpre @ whd, dc * f


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
    sequences advance as the rows of one cell update per step, and
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
        gate_d, cell_d = _lstm_cell_derivatives(acts, c_prev, tcs)
        for lo, hi in reversed(steps):
            k = hi - lo                  # sequences at their last step join at zero
            dpre[lo:hi], dh[:k], dc[:k] = _lstm_cell_grads(
                gate_d[lo:hi], cell_d[lo:hi], acts[lo:hi, H:2 * H], grad[lo:hi] + dh[:k],
                dc[:k], whd)
        return dpre[inverse], dpre.T @ h_prev

    return _node(hs[inverse], (xproj, wh), bwd)


def _attend(h, keys, enc, mask, w_comb, b_comb):
    """Masked bilinear attention and the input feed of (B, H) decoder states `h`.

    `keys` (N, H) score the stacked encoder states `enc` (N, C); the additive
    (B, N) `mask`, or None, limits each row to its own utterance.  Returns the
    attention weights (B, N), the combine layer's input [h; context]
    (B, H + C) and the feed tanh([h; context] @ w_comb.T + b_comb).
    """
    scores = h @ keys.T
    probs = _softmax(scores if mask is None else scores + mask)
    hc = np.concatenate([h, probs @ enc], axis=1)
    return probs, hc, np.tanh(hc @ w_comb.T + b_comb)


def attention_decoder(inputs, h0, cell, keys, enc, w_comb, b_comb, mask=None) -> Tensor:
    """(T * B, H) input feeds of an attentional LSTM decoder teacher-forced
    through T steps of B rows.

    `inputs` are the (T * B, E) token embeddings, step-major (row t * B + r
    is row r's input at step t), and `h0` the (B, H) first hidden state; the
    cell state and the first feed are zero.  `cell` is an LSTM layer with
    weights `wx` (4H, E + H), `wh` and `b` and a `step(x, state)` that
    advances arrays of packed [h | c] states (`nn.LstmCell`).  Step t runs
    `cell.step` on [input; previous feed], then attends with its new h through
    `_attend`, whose feed is row block t of the output.  Backpropagation
    through time stays inside this one node: it recomputes the gate
    activations of all T * B rows at once from the stored states, and each
    weight gradient is one product over all T * B rows.
    """
    parents = tuple(_coerce(p) for p in (inputs, h0, cell.wx, cell.wh, cell.b, keys, enc,
                                         w_comb, b_comb))
    x, h0d, wxd, whd, bd, keysd, encd, wcd, bcd = (p.data for p in parents)
    if (x.ndim != 2 or h0d.ndim != 2 or encd.ndim != 2 or h0d.shape[0] < 1
            or x.shape[0] % h0d.shape[0]):
        raise ShapeError(f"attention_decoder: inputs {x.shape} do not split into steps "
                         f"of h0 {h0d.shape}, or encoder states {encd.shape} are not 2-d")
    (B, H), E, (N, C), n = h0d.shape, x.shape[1], encd.shape, x.shape[0]
    want = [(4 * H, E + H), (4 * H, H), (4 * H,), (N, H), (H, H + C), (H,), (B, N)]
    got = [wxd.shape, whd.shape, bd.shape, keysd.shape, wcd.shape, bcd.shape,
           (B, N) if mask is None else np.shape(mask)]
    if got != want:
        raise ShapeError(f"attention_decoder: wx, wh, b, keys, w_comb, b_comb and mask "
                         f"are {got}, expected {want}")
    steps = range(0, n, B)
    X = np.empty((n, E + H))             # each step's cell input [token; previous feed]
    X[:, :E] = x
    states = np.empty((n + B, 2 * H))    # the first state, then each step's [h | c]
    states[:B, :H], states[:B, H:] = h0d, 0.0
    probs, hc, feeds = np.empty((n, N)), np.empty((n, H + C)), np.empty((n, H))
    feed = np.zeros((B, H))
    for lo in steps:
        rows, new = slice(lo, lo + B), slice(lo + B, lo + 2 * B)
        X[rows, E:] = feed
        states[new] = cell.step(X[rows], states[rows])
        probs[rows], hc[rows], feed = _attend(states[new, :H], keysd, encd, mask, wcd, bcd)
        feeds[rows] = feed
    h_prev, c_prev = states[:n, :H], states[:n, H:]

    def bwd(grad):
        acts, _, tcs = _lstm_cell(X @ wxd.T + bd + h_prev @ whd.T, c_prev, H)
        dpre, dz, dscores = np.empty((n, 4 * H)), np.empty((n, H)), np.empty((n, N))
        dctx = np.empty((n, C))
        dtanh, wx_feed = 1.0 - feeds * feeds, wxd[:, E:]
        dfeed, dh, dc = np.zeros((3, B, H))   # from step t + 1 into step t
        gate_d, cell_d = _lstm_cell_derivatives(acts, c_prev, tcs)
        for lo in reversed(steps):
            rows = slice(lo, lo + B)
            dz[rows] = (grad[rows] + dfeed) * dtanh[rows]
            dhc = dz[rows] @ wcd
            dctx[rows], p = dhc[:, H:], probs[rows]
            dp = dctx[rows] @ encd.T
            dscores[rows] = p * (dp - (dp * p).sum(axis=1, keepdims=True))
            dpre[rows], dh, dc = _lstm_cell_grads(
                gate_d[rows], cell_d[rows], acts[rows, H:2 * H],
                dh + dhc[:, :H] + dscores[rows] @ keysd, dc, whd)
            dfeed = dpre[rows] @ wx_feed
        return (dpre @ wxd[:, :E], dh, dpre.T @ X, dpre.T @ h_prev, dpre.sum(axis=0),
                dscores.T @ hc[:, :H], probs.T @ dctx, dz.T @ hc, dz.sum(axis=0))

    return _node(feeds, parents, bwd)


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
