"""Minimal trainable point-network stack with exact manual gradients.

Submodules:
  dense       MLP parameter and gradient containers, forward pass, and
              backward tape
  layers      point-set layers: set abstraction and the cross-frame
              cosine association head, both on one group -> MLP ->
              max-pool kernel, feature propagation, and the planning
              of set-abstraction groups (lock-step centroid sampling,
              then in-radius neighbour selection)
  losses      class-balanced weighted-L2 tracking loss
  optim       Adam and the triangular cyclical learning-rate schedule

All math is float64; every differentiable operation returns a tape whose
``backward`` reproduces the analytic gradient exactly.
"""

from .dense import DenseGrads, DenseParams, DenseTape, dense_apply
from .layers import (
    AssociationSpec,
    SaLayerSpec,
    SaSelection,
    association_head,
    fp_layer,
    sa_layer,
    sample_centroids,
    select_groups,
)
from .losses import tracking_loss
from .optim import OptState, adam_step, clr_schedule

__all__ = [
    "DenseGrads", "DenseParams", "DenseTape", "dense_apply",
    "AssociationSpec", "SaLayerSpec", "SaSelection",
    "association_head", "fp_layer", "sa_layer", "sample_centroids", "select_groups",
    "tracking_loss",
    "OptState", "adam_step", "clr_schedule",
]
