"""Adam optimizer with global-norm gradient clipping.

Moments follow the standard bias-corrected update, b1 = 0.9, b2 = 0.999, eps = 1e-8:

    m <- b1*m + (1-b1)*g        m_hat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2      v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)

Gradients are clipped jointly (one global norm over all parameters) to
5 before the moment updates.  A NaN or Inf gradient aborts the step with
the offending parameter's name and the current step index.  When finite
gradients have squares that overflow, the norm is taken again over the
gradients divided by their largest magnitude, so the step clips them
instead of zeroing them.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .autodiff import Tensor

__all__ = ["Adam", "OptimizerError"]


class OptimizerError(RuntimeError):
    """Raised when a gradient is non-finite at step time."""


def _rescaled_clip(grads: Sequence[np.ndarray], clip_norm: float):
    """(norm, clip scale) of finite gradients whose squares overflow, from
    the gradients divided by their largest magnitude.  The norm may still
    be infinite; the scale is not zero."""
    largest = max(float(np.max(np.abs(g), initial=0.0)) for g in grads)
    total_sq = 0.0
    for g in grads:
        q = g / largest
        total_sq += float((q * q).sum())
    root = float(np.sqrt(total_sq))
    return largest * root, clip_norm / largest / root


class Adam:
    beta1, beta2, eps, clip_norm = 0.9, 0.999, 1e-8, 5.0

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads: Dict[Tensor, np.ndarray]) -> float:
        """Apply one update from a {param: gradient} map holding every parameter
        (see autodiff.backward); returns the global gradient norm before clipping."""
        total_sq = 0.0
        with np.errstate(over="ignore"):
            for p in self.params:
                total_sq += float((grads[p] * grads[p]).sum())
        norm = float(np.sqrt(total_sq))
        if np.isfinite(norm):
            scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        else:                            # a NaN or Inf entry, or a square that overflows
            for p in self.params:
                if not np.all(np.isfinite(grads[p])):
                    raise OptimizerError(f"non-finite gradient for parameter '{p.name}' "
                                         f"at step {self.t + 1}")
            norm, scale = _rescaled_clip([grads[p] for p in self.params], self.clip_norm)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = grads[p] if scale == 1.0 else grads[p] * scale
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return norm
