"""Attention primitives: multi-head attention and additive attention.

``MultiHeadAttention`` is the MHA of Vaswani et al. with the
feed-forward block and skip connections the Bootleg paper folds into its
``MHA(·)`` notation (Section 3.2). ``AdditiveAttention`` is the Bahdanau
attention Bootleg uses to pool an entity's multiple type (or relation)
embeddings into a single vector (Section 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled

NEG_INF = -1e9


class ScaledDotProductAttention(Module):
    """softmax(Q K^T / sqrt(d)) V with optional boolean key mask."""

    def __init__(self, dropout: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        key_mask: np.ndarray | None = None,
    ) -> Tensor:
        d = query.shape[-1]
        if not is_grad_enabled() and (self.dropout is None or not self.dropout.training):
            # Inference fast path: in-place mask/softmax on the score
            # array instead of one temporary per graph op. Same float op
            # order as the autograd path, so results are bitwise equal.
            # float(): a np.float64 scalar would promote float32 scores.
            scores = (query.data @ key.data.swapaxes(-1, -2)) * float(1.0 / np.sqrt(d))
            if key_mask is not None:
                mask = np.asarray(key_mask, dtype=bool)
                np.copyto(scores, NEG_INF, where=mask[..., None, :])
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            return Tensor(scores @ value.data)
        scores = (query @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        if key_mask is not None:
            # key_mask: True where the key position is PADDING (to be ignored).
            mask = np.asarray(key_mask, dtype=bool)
            # Broadcast to scores' shape: (..., q_len, k_len).
            expanded = np.broadcast_to(mask[..., None, :], scores.shape)
            scores = scores.masked_fill(expanded, NEG_INF)
        weights = scores.softmax(axis=-1)
        if self.dropout is not None:
            weights = self.dropout(weights)
        return weights @ value


class MultiHeadAttention(Module):
    """Multi-head attention block with residual + feed-forward sublayers.

    This matches the paper's ``MHA(E, W)`` (cross attention) and
    ``MHA(E)`` (self attention): attention with a skip connection and
    layer norm, followed by a position-wise feed-forward layer with its
    own skip connection and layer norm.
    """

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        dropout: float = 0.1,
        ff_multiplier: int = 2,
    ) -> None:
        super().__init__()
        if hidden_dim % num_heads != 0:
            raise ConfigError(
                f"hidden_dim {hidden_dim} must be divisible by num_heads {num_heads}"
            )
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.head_dim = hidden_dim // num_heads
        self.q_proj = Linear(hidden_dim, hidden_dim, rng)
        self.k_proj = Linear(hidden_dim, hidden_dim, rng)
        self.v_proj = Linear(hidden_dim, hidden_dim, rng)
        self.out_proj = Linear(hidden_dim, hidden_dim, rng)
        self.attention = ScaledDotProductAttention(dropout, rng)
        self.norm_attn = LayerNorm(hidden_dim)
        self.norm_ff = LayerNorm(hidden_dim)
        self.ff_in = Linear(hidden_dim, ff_multiplier * hidden_dim, rng)
        self.ff_out = Linear(ff_multiplier * hidden_dim, hidden_dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def _split_heads(self, x: Tensor) -> Tensor:
        """(..., L, H) -> (..., heads, L, head_dim)."""
        *batch, length, _ = x.shape
        x = x.reshape(*batch, length, self.num_heads, self.head_dim)
        return x.swapaxes(-2, -3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        """(..., heads, L, head_dim) -> (..., L, H)."""
        x = x.swapaxes(-2, -3)
        *batch, length, _, _ = x.shape
        return x.reshape(*batch, length, self.hidden_dim)

    def forward(
        self,
        query: Tensor,
        context: Tensor | None = None,
        key_mask: np.ndarray | None = None,
        query_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend ``query`` over ``context`` (self-attention if omitted).

        ``key_mask`` and ``query_mask`` are True at padding; the query
        mask defaults to the key mask for self-attention. With gradients
        off, the projections, norms and feed-forward run on the real rows
        only and pad query rows come back as zeros. The autograd path
        computes every row.
        """
        self_attention = context is None
        if context is None:
            context = query
        if query.shape[-1] != self.hidden_dim or context.shape[-1] != self.hidden_dim:
            raise ShapeError(
                f"MHA expected hidden dim {self.hidden_dim}, got "
                f"query {query.shape[-1]} / context {context.shape[-1]}"
            )
        if key_mask is not None:
            key_mask = np.asarray(key_mask, dtype=bool)
        if query_mask is not None:
            query_mask = np.asarray(query_mask, dtype=bool)
        dropout_off = self.dropout is None or not self.dropout.training
        if not is_grad_enabled() and dropout_off:
            if query_mask is None and self_attention:
                query_mask = key_mask
            return self._forward_real_rows(query, context, key_mask, query_mask)
        q = self._split_heads(self.q_proj(query))
        k = self._split_heads(self.k_proj(context))
        v = self._split_heads(self.v_proj(context))
        head_mask = None
        if key_mask is not None:
            # Insert the heads axis: (..., k_len) -> (..., 1, k_len).
            head_mask = key_mask[..., None, :]
        attended = self.attention(q, k, v, key_mask=head_mask)
        attended = self.out_proj(self._merge_heads(attended))
        if self.dropout is not None:
            attended = self.dropout(attended)
        x = self.norm_attn(query + attended)
        ff = self.ff_out(self.ff_in(x).gelu())
        if self.dropout is not None:
            ff = self.dropout(ff)
        return self.norm_ff(x + ff)

    def _unpack_heads(
        self, rows: Tensor, real: np.ndarray | None, shape: tuple
    ) -> Tensor:
        """Packed (R, H) rows -> (..., heads, L, head_dim), zero pad rows."""
        x = _unpack(rows.data, real, shape)
        return Tensor(
            x.reshape(*shape[:-1], self.num_heads, self.head_dim).swapaxes(-2, -3)
        )

    def _forward_real_rows(
        self,
        query: Tensor,
        context: Tensor,
        key_mask: np.ndarray | None,
        query_mask: np.ndarray | None,
    ) -> Tensor:
        """Inference path: row-wise work on the packed real rows only.

        Only the score/softmax step runs on the padded layout. Keys of a
        row whose keys are all padding are kept: the autograd path
        attends uniformly over them, and so does this one.
        """
        real_q = _real_rows(query_mask, query.shape)
        real_k = None
        head_mask = None
        if key_mask is not None and key_mask.any():
            head_mask = key_mask[..., None, :]
            all_pad = key_mask.all(axis=-1, keepdims=True)
            if context is query and query_mask is key_mask and not all_pad.any():
                real_k = real_q
            else:
                real_k = _real_rows(key_mask & ~all_pad, context.shape)
        query_rows = Tensor(_pack(query.data, real_q))
        if context is query and real_k is real_q:
            context_rows = query_rows
        else:
            context_rows = Tensor(_pack(context.data, real_k))
        attended = self.attention(
            self._unpack_heads(self.q_proj(query_rows), real_q, query.shape),
            self._unpack_heads(self.k_proj(context_rows), real_k, context.shape),
            self._unpack_heads(self.v_proj(context_rows), real_k, context.shape),
            key_mask=head_mask,
        )
        merged = attended.data.swapaxes(-2, -3)  # (..., Lq, heads, head_dim)
        if real_q is not None:
            merged = merged[real_q]
        merged = Tensor(merged.reshape(-1, self.hidden_dim))
        x = self.norm_attn(query_rows + self.out_proj(merged))
        ff = self.ff_out(self.ff_in(x).gelu())
        return Tensor(_unpack(self.norm_ff(x + ff).data, real_q, query.shape))


def _real_rows(pad: np.ndarray | None, shape: tuple) -> np.ndarray | None:
    """Mask of the rows of an (..., L, H) array that are not padding;
    None when no row is."""
    if pad is None or not pad.any():
        return None
    real = ~pad
    return real if real.shape == shape[:-1] else np.broadcast_to(real, shape[:-1])


def _pack(x: np.ndarray, real: np.ndarray | None) -> np.ndarray:
    """The ``real`` rows of ``x`` (..., H) as one (R, H) array."""
    return x.reshape(-1, x.shape[-1]) if real is None else x[real]


def _unpack(rows: np.ndarray, real: np.ndarray | None, shape: tuple) -> np.ndarray:
    """Inverse of :func:`_pack`: scatter rows back, zeros at the pad rows."""
    if real is None:
        return rows.reshape(shape)
    out = np.zeros(shape, dtype=rows.dtype)
    out[real] = rows
    return out


class AdditiveAttention(Module):
    """Bahdanau-style pooling of a set of vectors into one vector.

    Given inputs of shape ``(..., S, D)`` (S items in the set), computes
    scores ``v^T tanh(W x_s)`` and returns the score-weighted sum of the
    items, shape ``(..., D)``. Items flagged in ``pad_mask`` (True =
    padding) receive zero weight.
    """

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.dim = dim
        self.proj = Linear(dim, dim, rng)
        self.score = Parameter(rng.normal(0.0, 0.02, size=dim))

    def forward(self, items: Tensor, pad_mask: np.ndarray | None = None) -> Tensor:
        if items.shape[-1] != self.dim:
            raise ShapeError(
                f"AdditiveAttention expected last dim {self.dim}, got {items.shape[-1]}"
            )
        scores = self.proj(items).tanh() @ self.score  # (..., S)
        if pad_mask is not None:
            pad_mask = np.asarray(pad_mask, dtype=bool)
            scores = scores.masked_fill(pad_mask, NEG_INF)
        weights = scores.softmax(axis=-1)  # (..., S)
        # Weighted sum over the set axis.
        *batch, num_items = weights.shape
        weighted = items * weights.reshape(*batch, num_items, 1)
        return weighted.sum(axis=-2)
