import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxmix import mixup


def rng_for(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def plan(partners, ratios):
    return np.asarray(partners), np.asarray(ratios, dtype=np.float64)


# ---------------------------------------------------------------------------
# lambda sampling
# ---------------------------------------------------------------------------

def test_lambda_rejects_bad_alpha():
    with pytest.raises(ValueError):
        mixup.pair_batch(4, 0.0, rng_for())
    with pytest.raises(ValueError):
        mixup.pair_batch(4, -1.0, rng_for())


def test_lambda_uniform_mean():
    _, ratios = mixup.pair_batch(100_000, 1.0, rng_for(42))
    assert abs(ratios.mean() - 0.5) < 0.01


def test_lambda_symmetry():
    _, ratios = mixup.pair_batch(40_000, 0.4, rng_for(7))
    # Beta(a, a) is symmetric: the empirical CDF of x and 1-x agree.
    grid = np.linspace(0.05, 0.95, 19)
    cdf = np.array([(ratios <= q).mean() for q in grid])
    cdf_flipped = np.array([((1 - ratios) <= q).mean() for q in grid])
    assert np.max(np.abs(cdf - cdf_flipped)) < 0.02


def test_lambda_variance_matches_closed_form():
    _, ratios = mixup.pair_batch(100_000, 0.2, rng_for(11))
    expected = 1.0 / (4.0 * (2 * 0.2 + 1))   # Beta(a,a) variance, a=0.2
    assert abs(ratios.var() - expected) / expected < 0.05


@pytest.mark.parametrize("alpha", [0.2, 0.4, 1.0, 3.0])
@pytest.mark.parametrize("n", [2, 5, 32])
def test_pairing_draws_a_derangement_then_one_scalar_beta_per_row(alpha, n):
    # Training draws this exact stream; checkpoints from earlier runs hold it.
    rng, reference = rng_for(n), rng_for(n)
    partners, ratios = mixup.pair_batch(n, alpha, rng)
    assert np.array_equal(partners, mixup.random_derangement(n, reference))
    assert ratios.tolist() == [float(reference.beta(alpha, alpha))
                               for _ in range(n)]
    assert rng.bit_generator.state == reference.bit_generator.state


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def test_endpoints_are_bitwise_exact():
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((2, 3, 4)).astype(np.float32)
    mixed = mixup.apply_pairs(stack, plan([1, 0], [0.0, 1.0]))
    assert mixed[0].tobytes() == stack[0].tobytes()
    assert mixed[1].tobytes() == stack[0].tobytes()


def test_half_mix_of_binary_grids():
    rng = np.random.default_rng(1)
    stack = (rng.random((2, 4, 4, 4)) < 0.5).astype(np.float64)
    a, b = stack
    mixed = mixup.apply_pairs(stack, plan([1, 0], [0.5, 0.5]))[0]
    assert set(np.unique(mixed)) <= {0.0, 0.5, 1.0}
    expected = np.empty_like(mixed)
    for idx in np.ndindex(*a.shape):
        expected[idx] = 0.5 * a[idx] + 0.5 * b[idx]
    assert np.array_equal(mixed, expected)


def test_input_mix_uses_one_ratio_for_all_components():
    # Stage 2 mixes images, priors and volumes with one plan.
    rng = np.random.default_rng(2)
    stacks = [rng.random((4, 2, 3)) for _ in range(3)]
    partners, ratios = mixup.pair_batch(4, 0.4, rng_for(2))
    for stack in stacks:
        mixed = mixup.apply_pairs(stack, (partners, ratios))
        for k, (j, lam) in enumerate(zip(partners, ratios)):
            assert np.allclose(mixed[k], (1 - lam) * stack[k] + lam * stack[j])


def test_latent_mix_endpoint_and_fixed_point():
    rng = np.random.default_rng(3)
    latents = rng.random((2, 6))
    out = mixup.apply_pairs(latents, plan([1, 0], [0.0, 0.0]))
    assert out[0].tobytes() == latents[0].tobytes()
    same = mixup.apply_pairs(latents[[0, 0]], plan([1, 0], [0.37, 0.37]))
    assert np.allclose(same[0], latents[0])


def test_latent_mix_quarter_matches_elementwise_oracle():
    rng = np.random.default_rng(4)
    for stack in (rng.standard_normal((2, 8)), rng.random((2, 4, 4, 4))):
        got = mixup.apply_pairs(stack, plan([1, 0], [0.25, 0.25]))[0]
        a, b = stack
        expected = np.empty_like(got)
        for idx in np.ndindex(*np.shape(a)):
            expected[idx] = 0.75 * a[idx] + 0.25 * b[idx]
        assert np.array_equal(got, expected)


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_mix_linearity_and_range(seed, lam):
    rng = np.random.default_rng(seed)
    stack = rng.random((2, 3, 3))
    forward = mixup.apply_pairs(stack, plan([1, 0], [lam, lam]))[0]
    backward = mixup.apply_pairs(stack, plan([1, 0], [1.0 - lam] * 2))[0]
    assert np.allclose(forward + backward, stack[0] + stack[1], atol=1e-12)
    assert forward.min() >= -1e-12 and forward.max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_batch_of_one_degenerates_to_identity():
    rng = rng_for(0)
    partners, ratios = mixup.pair_batch(1, 0.2, rng)
    assert partners.tolist() == [0] and ratios.tolist() == [0.0]
    assert rng.bit_generator.state == rng_for(0).bit_generator.state


def test_pairing_reproducible():
    a = mixup.pair_batch(16, 0.2, rng_for(5))
    b = mixup.pair_batch(16, 0.2, rng_for(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_partners_are_distinct():
    for seed in range(50):
        partners, _ = mixup.pair_batch(9, 0.2, rng_for(seed))
        assert np.all(partners != np.arange(9))
        assert sorted(partners) == list(range(9))


def test_cross_class_fraction_near_half():
    # Two balanced classes in a batch of 50; partner classes should split
    # close to evenly over many seeded batches.
    labels = np.array([0, 1] * 25)
    rng = rng_for(123)
    cross = [labels != labels[mixup.pair_batch(50, 0.2, rng)[0]]
             for _ in range(10_000)]
    assert abs(np.mean(cross) - 0.5) < 0.02


def test_apply_pairs_matches_pairwise_mix():
    rng = np.random.default_rng(9)
    stack = rng.random((6, 2, 3)).astype(np.float32)
    partners, ratios = mixup.pair_batch(6, 0.4, rng_for(1))
    mixed = mixup.apply_pairs(stack, (partners, ratios))
    for k, (j, lam) in enumerate(zip(partners, ratios)):
        expected = (1 - np.float32(lam)) * stack[k] + np.float32(lam) * stack[j]
        assert np.allclose(mixed[k], expected, atol=1e-7)


def test_apply_pairs_backward_is_the_adjoint_of_apply_pairs():
    # <apply_pairs(x), d> = <x, apply_pairs_backward(d)>; sample 2 is the
    # partner of two rows and sample 3 is mixed with itself.
    rng = np.random.default_rng(11)
    mixing = plan([2, 2, 0, 3], [0.3, 0.8, 0.5, 0.1])
    x = rng.standard_normal((4, 3, 5))
    d = rng.standard_normal((4, 3, 5))
    lhs = np.sum(mixup.apply_pairs(x, mixing) * d)
    rhs = np.sum(x * mixup.apply_pairs_backward(d, mixing))
    assert lhs == pytest.approx(rhs, rel=1e-12)
