"""A deterministic guard on the training step's Python overhead: the number
of calls into `mudal`'s own functions inside `_train_step` over one fixed
`train_round`, counted with `sys.setprofile`. A call's count does not depend
on the clock or on the machine's load, only on the code path, so the totals
below are upper bounds to the call. NumPy's own frames and C functions are
not counted: only Python frames whose code lives in the `mudal` package.

The totals were taken on CPython 3.11; an interpreter that inlines more
(e.g. 3.12's list comprehensions) counts fewer calls."""
import os
import sys

import mudal
import numpy as np
import pytest
from mudal import training
from mudal.data import RotatingSpec, gen_rotating, init_pool
from mudal.training import TrainConfig, train_round

PACKAGE = os.path.dirname(mudal.__file__) + os.sep
STEP = training._train_step
STEPS = 50  # 400 train rows per domain in batches of 16, over 2 epochs

# at most this many calls over the round's 50 steps, the step's own call among them
MAX_CALLS = {"cal": 4807, "vanilla": 2105}


def step_calls(variant: str, monkeypatch) -> tuple[int, int]:
    """(steps, calls into the package within them) over one `train_round`."""
    ds = gen_rotating(RotatingSpec(6, 400, 160, seed=0))
    pool = init_pool(ds, 60, 1)
    steps = calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    def counted(*args):
        nonlocal steps
        steps += 1
        sys.setprofile(profile)
        try:
            return STEP(*args)
        finally:
            sys.setprofile(None)
    monkeypatch.setattr(training, "_train_step", counted)
    train_round(ds, pool, TrainConfig(variant, epochs=2), 3)
    return steps, calls


@pytest.mark.parametrize("variant", sorted(MAX_CALLS))
def test_step_calls_stay_within_their_bound(variant, monkeypatch):
    steps, calls = step_calls(variant, monkeypatch)
    assert steps == STEPS
    assert STEPS < calls <= MAX_CALLS[variant], calls


def test_the_count_repeats_exactly(monkeypatch):
    assert step_calls("cal", monkeypatch) == step_calls("cal", monkeypatch)


def test_a_round_makes_no_choice_calls(monkeypatch):
    # a round's minibatches are the next rows of per-epoch shuffles, one
    # `rng.permuted` call a block, whatever the bit generator; no step
    # draws on its own
    ds = gen_rotating(RotatingSpec(6, 400, 160, seed=0))
    pool = init_pool(ds, 60, 1)
    calls = []

    class Counting(np.random.Generator):
        def choice(self, *args, **kwargs):
            calls.append(args)
            return super().choice(*args, **kwargs)

    for bits in (np.random.PCG64, np.random.MT19937):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(bits(seed)))
        train_round(ds, pool, TrainConfig("cal", epochs=2), 3)
    assert calls == []


@pytest.mark.parametrize("variant, blocks", [("cal", 12), ("vanilla", 6)])
def test_a_rounds_draws_make_one_generator_call_per_block_and_epoch(variant, blocks,
                                                                   monkeypatch):
    # 6 domains: the originals and the labeled rows are 12 blocks, and only
    # the labeled ones are drawn without a discriminator. Every generator
    # method the round calls while it trains is counted, so per-step draws
    # of any kind would show
    ds = gen_rotating(RotatingSpec(6, 400, 160, seed=0))
    pool = init_pool(ds, 60, 1)
    calls, training_now = [], []

    class Counting(np.random.Generator):
        def __getattribute__(self, name):
            if training_now and not name.startswith("_"):
                calls.append(name)
            return super().__getattribute__(name)

    run = training._run_epochs

    def counted(*args):
        training_now.append(True)
        try:
            return run(*args)
        finally:
            training_now.clear()
    monkeypatch.setattr(training, "_run_epochs", counted)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(np.random.PCG64(seed)))
    epochs = 3
    train_round(ds, pool, TrainConfig(variant, epochs=epochs), 3)
    assert 0 < len(calls) <= epochs * blocks, calls
