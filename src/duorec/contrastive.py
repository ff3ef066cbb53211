"""Contrastive regularizer over paired sequence representations.

Each row of a batch has two augmented views, and the regularizer sees 2B
slots that interleave them; in-batch negatives are every other slot
except the pair itself and any slot whose training target matches
(same-target collision removal). The regularizer is the symmetric
noise-contrastive objective with raw dot products and temperature tau,
one recorded op (``autodiff.nce_rows``) that interleaves the views itself
and whose forward and backward share one [2B, 2B] array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .data import Batch
from .encoder import EncoderParams, encode_sequence, encode_twins
from .rng import RngStream


@dataclass
class ContrastiveBatch:
    view_a: Tensor                # [B, d]: slot 2i of the 2B slots
    view_b: Tensor                # [B, d]: slot 2i+1, slot 2i's partner
    collision_mask: np.ndarray    # [2B, 2B] bool, True = admissible negative
    tau: float


@dataclass
class LossBundle:
    rec_loss: Tensor
    reg_loss: Tensor
    total: Tensor


def assemble(view_a: Tensor, view_b: Tensor, collision_mask: np.ndarray,
             tau: float) -> ContrastiveBatch:
    """The slots [h'_1, h'_1s, h'_2, h'_2s, ...] as their two views, with
    their mask and temperature; ``nce_regularizer`` checks them."""
    return ContrastiveBatch(view_a, view_b, collision_mask, tau)


def nce_regularizer(cb: ContrastiveBatch) -> Tensor:
    """Symmetric NCE: both directional terms per pair, mean over the batch.

    Each slot's denominator holds its partner plus its admissible
    negatives; log-sum-exp stabilized. With no admissible negatives the
    contribution is exactly zero. ``autodiff.nce_rows`` admits each slot's
    partner and the collision mask's negatives.
    """
    return ad.nce_rows(cb.view_a, cb.view_b, cb.collision_mask, cb.tau)


def combined_loss(rec: Tensor, reg: Tensor, lam: float) -> LossBundle:
    """total = rec + lam * reg, gradients flowing to both terms."""
    if lam < 0:
        raise ConfigError(f"regularizer weight must be >= 0, got {lam}")
    total = ad.add(rec, ad.mul(reg, lam))
    return LossBundle(rec_loss=rec, reg_loss=reg, total=total)


POSITIVE_MODES = ("unsupervised", "supervised", "duo")


def contrastive_views(mode: str, batch: Batch, params: EncoderParams,
                      base_stream: RngStream) -> tuple[Tensor, Tensor, Tensor]:
    """Encode the anchor and the positive pair of the configured mode.

    Returns (h, view_a, view_b). duo: the dropout twin and the encoded
    same-target partner (``encode_twins``). unsupervised: two fresh dropout
    passes of the anchor's sequence. supervised: the anchor itself against
    the partner. Every pass draws from its own labeled stream, so a mode
    encodes only the passes its pair uses, with the masks it always had.
    """
    if mode == "duo":
        return encode_twins(batch, params, base_stream)
    if mode not in POSITIVE_MODES:
        raise ConfigError(f"unknown positive mode {mode!r}")
    h = encode_sequence(batch.item_ids, params, base_stream.child("anchor"))
    if mode == "unsupervised":
        return (h, encode_sequence(batch.item_ids, params, base_stream.child("twin")),
                encode_sequence(batch.item_ids, params, base_stream.child("twin2")))
    return h, h, encode_sequence(batch.positive_ids, params, base_stream.child("partner"))
