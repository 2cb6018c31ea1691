"""The mini-batch training kernel of the edge-sampling SGD engine.

The :class:`~repro.core.embedding.trainer.EdgeSamplingTrainer` owns *what* to
train on (sampled edges, negatives, the learning-rate schedule);
:class:`ReferenceKernel` owns *how* one mini-batch updates the embedding
tables: one skip-gram step per objective term (paper Eq. 10), each gathering
its own rows and scattering its gradients through ``np.add.at``.  Every
byte-identity guarantee of the serving and streaming stacks (cache hits equal
recomputation, checkpoint-resume replays, every shard count alike) is stated
— and test-enforced — against this update.

A step writes its gathers, scores and gradients into scratch buffers held by
the kernel per ``(B, K, D)`` shape, with the same ufuncs in the same order as
freshly allocated temporaries would take, so the bytes are unchanged while
the per-step ``(B, K, D)`` blocks are allocated once per trainer instead of
once per term of every step.  Frozen training (a ``trainable`` mask, the
online-inference path) computes and scatters only the trainable-row subset
of the gradients; the subset updates are the same values in the same
accumulation order as the historical full-batch-then-mask scatter (whose
masked-out updates were exact zeros), so online predictions remain
byte-identical while the per-batch cost tracks the handful of trainable rows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReferenceKernel", "sigmoid"]

#: Clip for the sigmoid argument to avoid overflow in exp().
_SIGMOID_CLIP = 30.0

#: Floor inside the log() of the loss, mirroring the reference step.
_LOG_FLOOR = 1e-12

#: Size of the block freed at import to keep per-fit arrays on the heap.
_MALLOC_WARMUP_BYTES = 1 << 20

# glibc starts with a 128 KiB mmap threshold and trims a free heap top above
# twice that, so every fit would fault its larger arrays (the (B, K, D)
# step scratch at 160 KiB with the defaults, sampler tables, embedding
# tables) in afresh.  Freeing one mmap'd block raises both thresholds to its
# size (mallopt(3), dynamic mmap threshold), after which they are reused
# from the heap: ~2.4k minor faults per perfbench fleet fit instead of
# ~2.8k.  Other allocators ignore it.
np.empty(_MALLOC_WARMUP_BYTES, dtype=np.uint8)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically safe logistic function (in place when ``out`` is given)."""
    out = np.clip(x, -_SIGMOID_CLIP, _SIGMOID_CLIP, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


class _StepBuffers:
    """Scratch arrays for one ``(B, K, D)`` step shape."""

    def __init__(self, batch: int, negatives: int, dim: int) -> None:
        self.source = np.empty((batch, dim))
        self.positive_target = np.empty((batch, dim))
        self.negative_target = np.empty((batch, negatives, dim))
        self.uniform = np.empty((batch, dim))
        self.keep = np.empty((batch, dim), dtype=bool)
        self.mask = np.empty((batch, dim))
        self.pos_sig = np.empty(batch)
        self.neg_sig = np.empty((batch, negatives))
        self.pos_coeff = np.empty(batch)
        self.grad_source = np.empty((batch, dim))
        self.grad_mixed = np.empty((batch, dim))
        self.grad_positive = np.empty((batch, dim))
        self.grad_negative = np.empty((batch, negatives, dim))


class ReferenceKernel:
    """One mini-batch of negative-sampling SGD over the embedding tables.

    Stateless with respect to training progress — everything it needs
    arrives per call — but it keeps scratch buffers, so one kernel instance
    belongs to one trainer (it is not shared across threads).
    """

    def __init__(self) -> None:
        self._scratch: dict[tuple[int, int, int], _StepBuffers] = {}

    def train_batch(self, ego: np.ndarray, context: np.ndarray,
                    heads: np.ndarray, tails: np.ndarray,
                    negatives: np.ndarray, *, learning_rate: float,
                    terms, config, rng: np.random.Generator,
                    trainable: np.ndarray | None = None) -> float:
        """Apply one mini-batch update in place; return the summed loss.

        ``heads``/``tails`` are the sampled directed edges (shape ``(B,)``)
        and ``negatives`` the sampled noise nodes (shape ``(B, K)``).
        ``terms`` selects the objective terms (an ``ObjectiveTerms``), and
        ``trainable`` optionally masks which rows may receive updates.
        """
        shape = negatives.shape + (ego.shape[1],)
        buffers = self._scratch.get(shape)
        if buffers is None:
            buffers = self._scratch[shape] = _StepBuffers(*shape)
        loss = 0.0
        if terms.second_order:
            loss += self._skipgram_step(ego, context, heads, tails, negatives,
                                        learning_rate, trainable, config, rng,
                                        buffers)
        if terms.symmetric:
            loss += self._skipgram_step(context, ego, heads, tails, negatives,
                                        learning_rate, trainable, config, rng,
                                        buffers)
        if terms.first_order:
            loss += self._skipgram_step(ego, ego, heads, tails, negatives,
                                        learning_rate, trainable, config, rng,
                                        buffers)
        return loss

    @staticmethod
    def _skipgram_step(source_table: np.ndarray, target_table: np.ndarray,
                       heads: np.ndarray, tails: np.ndarray,
                       negatives: np.ndarray, lr: float,
                       trainable: np.ndarray | None, config,
                       rng: np.random.Generator,
                       buffers: _StepBuffers) -> float:
        """One negative-sampling step: pull source[heads] towards target[tails].

        ``source_table`` and ``target_table`` select which embedding matrix
        plays the "input" and "output" role; passing (ego, context) gives the
        second-order term, (context, ego) the E-LINE symmetric term and
        (ego, ego) the first-order term.
        """
        # mode="clip" lets take() write straight into ``out`` (the default
        # "raise" buffers the result first); sampled indices are in range.
        source = np.take(source_table, heads, axis=0, out=buffers.source,
                         mode="clip")                     # (B, D)
        positive_target = np.take(target_table, tails, axis=0,
                                  out=buffers.positive_target,
                                  mode="clip")            # (B, D)
        negative_target = np.take(target_table, negatives, axis=0,
                                  out=buffers.negative_target,
                                  mode="clip")            # (B, K, D)

        if config.dropout > 0.0:
            keep = 1.0 - config.dropout
            rng.random(out=buffers.uniform)
            np.less(buffers.uniform, keep, out=buffers.keep)
            np.divide(buffers.keep, keep, out=buffers.mask)
            np.multiply(source, buffers.mask, out=source)

        pos_sig = sigmoid(np.einsum("bd,bd->b", source, positive_target,
                                    out=buffers.pos_sig), out=buffers.pos_sig)
        neg_sig = sigmoid(np.einsum("bd,bkd->bk", source, negative_target,
                                    out=buffers.neg_sig), out=buffers.neg_sig)

        # Gradients of the negative-sampling loss
        #   -log sigma(pos) - sum_k log sigma(-neg_k)
        pos_coeff = np.subtract(pos_sig, 1.0, out=buffers.pos_coeff)  # (B,)
        neg_coeff = neg_sig                                           # (B, K)

        if trainable is None:
            grad_source = np.multiply(pos_coeff[:, None], positive_target,
                                      out=buffers.grad_source)
            np.add(grad_source,
                   np.einsum("bk,bkd->bd", neg_coeff, negative_target,
                             out=buffers.grad_mixed),
                   out=grad_source)
            grad_positive = np.multiply(pos_coeff[:, None], source,
                                        out=buffers.grad_positive)
            grad_negative = np.multiply(neg_coeff[:, :, None],
                                        source[:, None, :],
                                        out=buffers.grad_negative)

            np.add.at(source_table, heads,
                      np.multiply(grad_source, -lr, out=grad_source))
            np.add.at(target_table, tails,
                      np.multiply(grad_positive, -lr, out=grad_positive))
            np.add.at(target_table, negatives.ravel(),
                      np.multiply(grad_negative, -lr, out=grad_negative)
                      .reshape(-1, grad_negative.shape[-1]))
        else:
            # Frozen training (online inference): gradients land on the few
            # trainable rows only, so compute and scatter just that subset.
            # Values are identical to masking the full-batch gradients and
            # scattering everything — the dropped updates are exact zeros,
            # the kept ones are the same elementwise products in the same
            # accumulation order — but the per-batch cost tracks the number
            # of trainable-row touches instead of B * (K + 1), and the
            # (B, K, D) negative-gradient tensor is never materialised.
            head_rows = np.flatnonzero(trainable[heads])
            if head_rows.size:
                grad_source = (
                    pos_coeff[head_rows][:, None] * positive_target[head_rows]
                    + np.einsum("bk,bkd->bd", neg_coeff[head_rows],
                                negative_target[head_rows]))
                np.add.at(source_table, heads[head_rows], -lr * grad_source)
            tail_rows = np.flatnonzero(trainable[tails])
            if tail_rows.size:
                grad_positive = pos_coeff[tail_rows][:, None] * source[tail_rows]
                np.add.at(target_table, tails[tail_rows], -lr * grad_positive)
            negative_mask = trainable[negatives]
            if negative_mask.any():
                rows, cols = np.nonzero(negative_mask)     # row-major order
                grad_negative = neg_coeff[rows, cols][:, None] * source[rows]
                np.add.at(target_table, negatives[rows, cols],
                          -lr * grad_negative)

        with np.errstate(divide="ignore"):
            pos_loss = -np.log(np.maximum(pos_sig, _LOG_FLOOR)).sum()
            neg_loss = -np.log(np.maximum(1.0 - neg_sig, _LOG_FLOOR)).sum()
        return float(pos_loss + neg_loss)
