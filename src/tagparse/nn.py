"""Sequence-model building blocks shared by the tagger and the parser.

LSTM gates are packed row-wise as [input; forget; output; candidate]
blocks of the hidden size.  Every parameter comes from a source
`make(name, shape)`: `drawn(rng)` for a new model makes each 2-d weight
Glorot-uniform, drawn in call order, and each 1-d bias zero;
`checkpoint.stored` hands a loaded model its checkpoint's arrays.

Sequences stacked row-wise run as one fused `lstm_sequence` autodiff
node giving an (N, hidden) matrix.  `LstmCell.step` advances B rows of
packed (B, 2 * hidden) [h | c] state arrays by one step and records no
graph.  The parser's decoder cell takes it once per output step in both
of its uses: beam search, and the forward pass of the teacher-forced
`autodiff.attention_decoder` node, whose own backward carries the
gradient through time.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["Vocab", "LstmCell", "BiLstmEncoder", "drawn"]

# a parameter source: make(name, shape) -> the named parameter
Make = Callable[[str, tuple], Tensor]

UNK = "<unk>"                            # every Vocab's unknown token, id 0


def drawn(rng: np.random.Generator) -> Make:
    """The parameter source of a new model (see the module docstring)."""
    def make(name: str, shape: tuple) -> Tensor:
        return ad.parameter(ad.glorot(rng, shape) if len(shape) == 2 else np.zeros(shape), name)
    return make


class Vocab:
    """Bidirectional token/id map; unseen tokens map to UNK's id, 0."""

    def __init__(self, tokens: Iterable[str]):
        self.id2tok: List[str] = []
        self.tok2id = {}
        for tok in [UNK, *tokens]:
            if tok not in self.tok2id:
                self.tok2id[tok] = len(self.id2tok)
                self.id2tok.append(tok)

    def __len__(self):
        return len(self.id2tok)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.tok2id.get(t, 0) for t in tokens], dtype=np.intp)

    def decode(self, ids: Sequence[int]) -> List[str]:
        return [self.id2tok[int(i)] for i in ids]


class LstmCell:
    """One LSTM layer: Wx (4H, I), Wh (4H, H), b (4H,)."""

    def __init__(self, name: str, input_size: int, hidden_size: int, make: Make):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.wx = make(f"{name}.wx", (4 * hidden_size, input_size))
        self.wh = make(f"{name}.wh", (4 * hidden_size, hidden_size))
        self.b = make(f"{name}.b", (4 * hidden_size,))

    def parameters(self) -> List[Tensor]:
        return [self.wx, self.wh, self.b]

    def step(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """The next (B, 2H) [h | c] states from (B, I) inputs and (B, 2H) states:

            i, f, o = sigmoid(.), g = tanh(.)   of x @ Wx.T + b + h @ Wh.T
            c' = f * c + i * g,  h' = o * tanh(c')
        """
        H = self.hidden_size
        act, c_next, tc = ad._lstm_cell(x @ self.wx.data.T + self.b.data
                                        + state[:, :H] @ self.wh.data.T, state[:, H:], H)
        return np.concatenate([act[:, 2 * H:3 * H] * tc, c_next], axis=1)

    def run(self, xs: Tensor, lengths, reverse: bool = False) -> Tensor:
        """(N, H) states of the sequences stacked in (N, I) rows; see lstm_sequence."""
        return ad.lstm_sequence(ad.linear(xs, self.wx, self.b), self.wh, lengths, reverse)


class BiLstmEncoder:
    """Stacked bidirectional LSTM; per-word output is [forward; backward]."""

    def __init__(self, name: str, input_size: int, hidden_size: int,
                 num_layers: int, make: Make):
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.hidden_size = hidden_size
        self.layers: List[Tuple[LstmCell, LstmCell]] = []
        size = input_size
        for k in range(num_layers):
            fwd = LstmCell(f"{name}.l{k}.fwd", size, hidden_size, make)
            bwd = LstmCell(f"{name}.l{k}.bwd", size, hidden_size, make)
            self.layers.append((fwd, bwd))
            size = 2 * hidden_size

    def parameters(self) -> List[Tensor]:
        out = []
        for fwd, bwd in self.layers:
            out.extend(fwd.parameters())
            out.extend(bwd.parameters())
        return out

    def encode(self, xs: Tensor, lengths) -> Tensor:
        """Map (N, I) rows of sequences `lengths` long to (N, 2H) states."""
        for fwd, bwd in self.layers:
            xs = ad.concat([fwd.run(xs, lengths), bwd.run(xs, lengths, reverse=True)], axis=1)
        return xs
