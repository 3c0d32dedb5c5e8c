"""The stdlib port of NumPy's seeded streams against NumPy itself, draw for draw."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crowdcoord.rng import POISSON_LAM_MAX, Generator, spawn_seed

# one word, the largest one-word value, and values of three and five 32-bit words
EDGE_SEEDS = (0, 2**32 - 1, 2**64 + 1, 2**128 + 3)
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**160)
WIDTHS = (1, 2, 2**31, 2**32 - 1)
LAMS = (0, 0.5, 9.99, 10, 80, 1e3)
draws = st.one_of(
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40),
              st.sampled_from(WIDTHS) | st.integers(1, 2**32 - 1)),
    st.tuples(st.just("random")),
    st.tuples(st.just("poisson"), st.sampled_from(LAMS) | st.floats(0, 2e3)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
)


@given(st.lists(seeds, max_size=6))
@example([0])
@example([2**32 - 1])
@example([2**64 + 1])
@example([2**128 + 3])
@example([7, 0, 2**40, 3, 1, 2**96])  # more words than the pool holds
@example([])
def test_spawn_seed_is_seed_sequences_first_word(entropy):
    assert spawn_seed(*entropy) == int(np.random.SeedSequence(entropy).generate_state(1)[0])


@given(seeds, st.integers(0, 3000))
@example(0, 0)
@example(0, 1)
@example(2**32 - 1, 2)
@example(2**64 + 1, 3000)
@example(2**128 + 3, 257)
def test_permutation_is_default_rngs(seed, n):
    assert Generator(seed).permutation(n) == np.random.default_rng(seed).permutation(n).tolist()


def _numpy_draw(rng, draw):
    name, *args = draw
    if name == "integers":
        low, width = args
        return int(rng.integers(low, low + width))
    if name == "random":
        return float(rng.random())
    if name == "permutation":
        return rng.permutation(*args).tolist()
    return int(rng.poisson(*args))


def _port_draw(rng, draw):
    name, *args = draw
    if name == "integers":
        low, width = args
        return rng.integers(low, low + width)
    return getattr(rng, name)(*args)


@given(seeds, st.lists(draws, max_size=60))
@example(0, [("integers", low, width) for width in WIDTHS for low in (-7, 0)]
         + [("poisson", lam) for lam in LAMS] + [("random",), ("integers", -2**40, 3)])
@example(2**32 - 1, [("poisson", lam) for lam in LAMS for _ in range(3)])
@example(2**64 + 1, [("random",), ("integers", 0, 2**31), ("random",), ("integers", 0, 2)])
@example(2**128 + 3, [("integers", -(2**31), 2**32 - 1), ("poisson", 1e3), ("random",)])
@example(1, [("permutation", n) for n in (0, 1, 2, 5)] + [("integers", 0, 2), ("random",)])
def test_interleaved_draws_are_default_rngs(seed, sequence):
    # integers and permutation take 32-bit halves of one output, random and poisson
    # whole outputs, so the interleaving checks that the unused half is kept as NumPy
    # keeps it, and that each draw takes no more outputs than NumPy's
    port, reference = Generator(seed), np.random.default_rng(seed)
    for draw in sequence:
        assert _port_draw(port, draw) == _numpy_draw(reference, draw), draw


@pytest.mark.parametrize("refused", [
    lambda: Generator(-1),
    lambda: spawn_seed(3, -1),
    lambda: Generator(0).integers(5, 5),
    lambda: Generator(0).integers(5, 4),
    lambda: Generator(0).integers(0, 2**32),
    lambda: Generator(0).integers(-2**63 - 1, 0),
    lambda: Generator(0).poisson(-0.5),
    lambda: Generator(0).poisson(math.nan),
    lambda: Generator(0).poisson(math.inf),
    lambda: Generator(0).poisson(POISSON_LAM_MAX * 2),
    lambda: Generator(0).permutation(-1),
    lambda: Generator(0).permutation(2**32 + 1),
], ids=["seed-negative", "entropy-negative", "integers-empty", "integers-reversed",
        "integers-span-2-32", "integers-below-int64", "poisson-negative", "poisson-nan",
        "poisson-inf", "poisson-over-max", "permutation-negative", "permutation-over-2-32"])
def test_refused_arguments_raise_value_error(refused):
    with pytest.raises(ValueError):
        refused()


def test_a_negative_seed_is_refused_with_numpys_line():
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
        Generator(-1)
