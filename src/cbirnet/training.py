"""Per-sample SGD on negative log-likelihood.

Training is deliberately plain: batch size 1, constant learning rate, no
momentum, no decay. One seed drives two independent streams (epoch shuffle
order and dropout masks), so a (seed, data, settings) triple reproduces
the final parameters bit for bit. Non-finite losses or gradients abort
instead of clamping; silent NaN recovery hides gradient bugs. The
settings arrive as plain arguments: cli.RunConfig holds their defaults
and checks them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, TrainingDiverged

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch mean loss plus the end-state training error.

    epoch_seconds is wall-clock bookkeeping and excluded from equality:
    two runs with the same seed and settings compare equal even though
    their timings differ.
    """

    epoch_losses: tuple
    final_train_error: float
    epoch_seconds: tuple = field(compare=False)

    def to_tsv(self):
        lines = ["epoch\tmean_loss\tseconds"]
        for i, (loss, sec) in enumerate(
                zip(self.epoch_losses, self.epoch_seconds), start=1):
            lines.append(f"{i}\t{loss!r}\t{sec:.6f}")
        return "\n".join(lines) + "\n"


def nll_loss(log_probs, label):
    """Negative log-likelihood of the true class: -log_probs[label]."""
    n = log_probs.shape[0]
    if not 0 <= label < n:
        raise InputError(f"label {label} outside [0, {n})")
    return float(-log_probs[label])


def nll_grad(log_probs, label):
    """dLoss/dlog_probs: -1 at the true class, 0 elsewhere."""
    n = log_probs.shape[0]
    if not 0 <= label < n:
        raise InputError(f"label {label} outside [0, {n})")
    g = np.zeros(n, dtype=np.float64)
    g[label] = -1.0
    return g


def sgd_step(net, sample, learning_rate):
    """One forward/backward/update cycle on a single sample.

    Returns the sample's loss before the update. Aborts with
    TrainingDiverged on any non-finite loss or gradient; every layer is
    checked before any parameter moves, so a diverged step leaves the
    parameters as the previous step left them.

    net.zero_grads() does nothing; it stays for perfbench's
    training.zero_grads_ms (see Network.zero_grads). The backward writes
    each conv layer's grads outright, this sample's alone (and skips the
    first layer's unused input gradient), the check reads them,
    and the update scales each grad in place before subtracting it, so
    after a step the conv grads hold lr * grad. An FC layer has no grads.
    Its backward keeps the factors of its weight gradient (the upstream
    gradient g and the cached input x) and reads the weights once for the
    input gradient; the check reads only the factors, since every
    g_i * x_j is finite exactly when max|g| * max|x| is; the update reads
    and writes the weights once, a block of rows at a time
    (layers.FullyConnected).

    Every parameter ends bit-identical to value -= lr * grad on
    zero-filled, added-to grads. Only a zero grad's sign may differ (a
    conv grad or an FC bias's g, not an FC weight's outer product, which
    is summed into zeros), and that reaches no parameter unless one is
    exactly -0.0.
    """
    net.zero_grads()
    log_probs = net.forward(sample.image, train=True)
    loss = nll_loss(log_probs, sample.label)
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite loss {loss} on sample {sample.source_id}")
    net.backward(nll_grad(log_probs, sample.label), input_grad=False)
    if not all(layer.step_finite() for layer in net.layers):
        raise TrainingDiverged(
            f"non-finite gradient on sample {sample.source_id}")
    if learning_rate != 0.0:
        for layer in net.layers:
            layer.step(learning_rate)
    return loss


def train(net, train_split, *, learning_rate, max_epochs, seed, log_interval):
    """Run max_epochs passes of per-sample SGD over a seeded shuffle.

    seed spawns two child streams: one orders the samples each epoch, the
    other drives dropout masks. The learning rate is constant throughout.
    A progress line is logged every log_interval samples; 0 is silent.
    Returns a TrainReport with per-epoch mean losses and the final
    fraction of misclassified training samples.
    """
    samples = list(train_split)
    if not samples:
        raise InputError("training split is empty")
    shuffle_seq, dropout_seq = np.random.SeedSequence(seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    net.seed_dropout(dropout_seq)
    n = len(samples)
    epoch_losses = []
    epoch_seconds = []
    for epoch in range(1, max_epochs + 1):
        started = time.perf_counter()
        total = 0.0
        for j, idx in enumerate(shuffle_rng.permutation(n), start=1):
            total += sgd_step(net, samples[idx], learning_rate)
            if log_interval and j % log_interval == 0:
                log.info("epoch %d: %d/%d samples, running mean loss %.6f",
                         epoch, j, n, total / j)
        epoch_losses.append(total / n)
        epoch_seconds.append(time.perf_counter() - started)
        log.info("epoch %d: mean loss %.6f (%.2fs)",
                 epoch, epoch_losses[-1], epoch_seconds[-1])
    predicted = net.classify([s.image for s in samples], features=False)[1]
    wrong = int(np.count_nonzero(predicted != [s.label for s in samples]))
    return TrainReport(
        epoch_losses=tuple(epoch_losses),
        final_train_error=wrong / n,
        epoch_seconds=tuple(epoch_seconds),
    )

