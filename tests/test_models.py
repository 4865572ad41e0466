"""The bundle is its parameters' one home and has one inference readout."""
import numpy as np
import pytest

from mudal.models import ModelBundle, make_bundle
from mudal.nn import DenseNet, Layer
from test_objective import same_bits


def bundle_of(rng, n_classes=3, n_domains=3, latent_dim=4, classifier_hidden=(5,)):
    return make_bundle(2, n_classes, n_domains, rng, latent_dim=latent_dim,
                       encoder_hidden=(5,), classifier_hidden=classifier_hidden,
                       disc_hidden=(6,))


def ones(layers):
    return {layer: (np.ones_like(layer.W), np.ones_like(layer.b)) for layer in layers}


def test_one_network_set_that_steps():
    # a second read is the same set, so the first still views its layers
    bundle = bundle_of(np.random.default_rng(0))
    first, second = bundle.net_params, bundle.net_params
    assert first is second
    before = first.flat.copy()
    first.step(ones(first.layers), 0.01)
    assert not np.array_equal(first.flat, before)
    layers = [*bundle.encoder.layers, *bundle.classifier.layers, *bundle.head_finals]
    assert first.layers == layers
    assert all(np.shares_memory(p, first.flat) for layer in layers for p in (layer.W, layer.b))


def test_the_stack_and_the_discriminator_set_are_held_too():
    bundle = bundle_of(np.random.default_rng(1))
    stack = bundle.finals
    assert stack.layers == (bundle.classifier.layers[-1], *bundle.head_finals)
    assert all(np.shares_memory(stack.W[k], layer.W) for k, layer in enumerate(stack.layers))
    disc = bundle.disc_params
    assert disc is bundle.disc_params and disc.layers == bundle.discriminator.layers
    disc.step(ones(disc.layers), 0.01)
    no_disc = make_bundle(2, 3, 2, np.random.default_rng(2), latent_dim=4, encoder_hidden=(5,),
                          classifier_hidden=(5,), disc_hidden=(6,), with_discriminator=False)
    assert no_disc.disc_params is None


def test_a_head_of_another_shape_is_refused():
    rng = np.random.default_rng(3)
    encoder = DenseNet.create([2, 4], ["identity"], rng)
    classifier = DenseNet.create([4, 5, 3], ["relu", "identity"], rng)
    heads = [Layer.random(5, 3, "identity", rng), Layer.random(5, 2, "identity", rng)]
    with pytest.raises(ValueError, match="differ in shape"):
        ModelBundle(encoder, classifier, heads, None, 2)


def test_readout_is_the_classifier_net_bit_for_bit():
    # oracles: the whole classifier as a net (evaluate's former route), and
    # the trunk then the final layer by hand (the strategies' former route)
    rng = np.random.default_rng(4)
    for _ in range(30):
        widths = tuple(int(w) for w in rng.integers(1, 40, size=rng.integers(1, 3)))
        bundle = bundle_of(rng, n_classes=int(rng.integers(2, 10)),
                           n_domains=int(rng.integers(1, 6)),
                           latent_dim=int(rng.integers(1, 9)), classifier_hidden=widths)
        z = rng.standard_normal((int(rng.integers(1, 60)), bundle.latent_dim))
        hidden, logits = bundle.readout(z)
        assert same_bits(logits, DenseNet(bundle.classifier.layers).predict(z))
        final = bundle.classifier.layers[-1]
        assert same_bits(hidden, bundle.trunk.predict(z))
        assert same_bits(logits, hidden @ final.W.T + final.b)


def test_each_network_is_stepped_by_one_optimizer():
    # a trace is current while its first layer's optimizer has not stepped,
    # so every net a pass runs must be stepped by one `AdamState` alone
    bundle = bundle_of(np.random.default_rng(5))
    nets = {"encoder": bundle.encoder, "classifier": bundle.classifier, "trunk": bundle.trunk,
            "discriminator": bundle.discriminator}
    for name, net in nets.items():
        assert len({id(layer.adam) for layer in net.layers}) == 1, name
    assert bundle.encoder.layers[0].adam is bundle.net_params.adam
    assert bundle.trunk.layers[0].adam is bundle.net_params.adam
    assert all(layer.adam is bundle.net_params.adam for layer in bundle.finals.layers)
    assert bundle.discriminator.layers[0].adam is bundle.disc_params.adam
    assert bundle.disc_params.adam is not bundle.net_params.adam
