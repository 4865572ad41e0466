"""Network bundle for the composite trainer: shared encoder, shared classifier,
per-domain classifier heads sharing the classifier trunk, and a conditional
feature discriminator with one output per domain."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nn import DenseNet, Layer, ParamSet, Workspace


@dataclass
class ModelBundle:
    """encoder: D -> Z, classifier: Z -> C (trunk + final layer),
    head_finals[i]: a per-domain final layer over the shared trunk,
    discriminator: Z -> N logits.

    Logit i of the discriminator is the conditional decision D_i(z) that a
    latent row is an original of domain i rather than part of its labeled
    mixture: MDAN's per-domain discriminators as heads over one shared trunk.

    The bundle is its parameters' one home, built with it: `net_params`, the
    `ParamSet` of the encoder, classifier and head finals, `finals`, its
    `LayerStack` of the shared final layer and the heads, and `disc_params`,
    the discriminator's set (None without one). Every pass and step reads
    them: another set over the same layers would stop these from stepping.
    """

    encoder: DenseNet
    classifier: DenseNet
    head_finals: list[Layer]
    discriminator: DenseNet | None
    n_domains: int

    def __post_init__(self) -> None:
        if len(self.classifier.layers) < 2:
            raise ValueError("the classifier needs a trunk: a hidden layer before its final one")
        if len(self.head_finals) != self.n_domains:
            raise ValueError("need one head final layer per domain")
        disc = self.discriminator
        if disc is not None and (disc.input_dim, disc.output_dim) != (self.latent_dim,
                                                                       self.n_domains):
            raise ValueError(f"discriminator maps {disc.input_dim} -> {disc.output_dim}; "
                             f"need latent {self.latent_dim} -> {self.n_domains} domain logits")
        self.net_params = ParamSet([*self.encoder.layers, *self.classifier.layers,
                                    *self.head_finals])
        # refuses a head whose shape is not the shared final layer's
        self.finals = self.net_params.stack([self.classifier.layers[-1], *self.head_finals])
        self.disc_params = None if disc is None else ParamSet(disc.layers)

    @property
    def latent_dim(self) -> int:
        return self.encoder.output_dim

    @cached_property
    def trunk(self) -> DenseNet:
        """The classifier's layers but its final one, as one net."""
        return DenseNet(self.classifier.layers[:-1])

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.encoder.predict(x)

    def readout(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The classifier's final-layer input on latent rows z, and its logits."""
        trace = self.classifier.forward(z)
        return trace.acts[-2], trace.output

    def workspace(self) -> Workspace:
        """A new `Workspace` for a round, writing layer gradients where `step` reads them."""
        disc = {} if self.disc_params is None else self.disc_params.grad_views()
        return Workspace(self.net_params.grad_views() | disc)


def make_bundle(feature_dim: int, n_classes: int, n_domains: int,
                rng: np.random.Generator, latent_dim: int,
                encoder_hidden: tuple[int, ...], classifier_hidden: tuple[int, ...],
                disc_hidden: tuple[int, ...], with_discriminator: bool = True) -> ModelBundle:
    enc_dims = [feature_dim, *encoder_hidden, latent_dim]
    enc_acts = ["relu"] * len(encoder_hidden) + ["identity"]  # linear feature layer
    encoder = DenseNet.create(enc_dims, enc_acts, rng)

    cls_dims = [latent_dim, *classifier_hidden, n_classes]
    cls_acts = ["relu"] * len(classifier_hidden) + ["identity"]
    classifier = DenseNet.create(cls_dims, cls_acts, rng)

    trunk_out = cls_dims[-2]
    head_finals = [
        Layer.random(trunk_out, n_classes, "identity", rng) for _ in range(n_domains)
    ]

    discriminator = None
    if with_discriminator:
        disc_dims = [latent_dim, *disc_hidden, n_domains]
        disc_acts = ["leaky_relu"] * len(disc_hidden) + ["identity"]
        discriminator = DenseNet.create(disc_dims, disc_acts, rng)

    return ModelBundle(encoder, classifier, head_finals, discriminator, n_domains)
