"""The loss-and-pullback protocol of `nn.grad_check`, and a directional
gradient check of every standard fragment.

The directional check compares <g, v> with the central difference of the
loss along one random unit direction v per tensor, the fast gradcheck of
https://pytorch.org/docs/stable/notes/gradcheck.html.  It costs one
analytic call and two loss-only calls per tensor, where `voxmix
grad-check` makes up to 40, so it runs in tier-1 (about 1 s for every
fragment); `voxmix grad-check` stays the coordinate-wise check.
"""

import numpy as np
import pytest

from voxmix import nn, verification

TOLERANCE = 1e-4   # the `voxmix grad-check` default
FRAGMENT_NAMES = [name for name, *_ in verification.standard_fragments(0)]
PIPELINE_NAMES = [name for name in FRAGMENT_NAMES if name.startswith("pipeline_")]


def _fragment(name):
    """(fn, arrays, fd_step) of the standard fragment called `name`."""
    return next(rest for fragment, *rest in verification.standard_fragments(0)
                if fragment == name)


def directional_errors(fn, arrays, step, seed=0):
    """Relative error of <g, v> against the central difference along a
    random unit direction v, per tensor; each tensor is restored exactly."""
    rng = np.random.default_rng(seed)
    grads = fn(arrays)[1]()
    errors = {}
    for name, arr in arrays.items():
        assert grads[name].shape == arr.shape, f"gradient shape of {name}"
        v = rng.standard_normal(arr.shape)
        v /= np.linalg.norm(v)
        original = arr.copy()
        arr += step * v
        loss_plus = fn(arrays)[0]
        arr[...] = original - step * v
        loss_minus = fn(arrays)[0]
        arr[...] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = float(np.sum(grads[name] * v))
        errors[name] = abs(analytic - numeric) / max(
            1e-6, abs(analytic) + abs(numeric))
    return errors


@pytest.fixture
def relu_patterns(monkeypatch):
    """The sign pattern of every ReLU input, in call order."""
    patterns = []
    forward = nn.ReLU.forward

    def recording(layer, x, store):
        patterns.append(x > 0)
        return forward(layer, x, store)

    monkeypatch.setattr(nn.ReLU, "forward", recording)
    return patterns


@pytest.mark.parametrize("name", FRAGMENT_NAMES)
def test_directional_derivatives_match_central_differences(name, relu_patterns):
    fn, arrays, step = _fragment(name)
    relu_patterns.clear()   # the kink-safe seed search ran forward passes too
    errors = directional_errors(fn, arrays, step)
    worst = max(errors, key=errors.get)
    assert errors[worst] < TOLERANCE, f"{errors[worst]:.3e} at {worst}"
    # The kink-safe seed also holds along the directions: every loss call
    # sees the ReLU pattern of the analytic call.
    per_call, rest = divmod(len(relu_patterns), 1 + 2 * len(arrays))
    assert rest == 0
    for k in range(per_call, len(relu_patterns)):
        assert np.array_equal(relu_patterns[k], relu_patterns[k % per_call])


def test_the_directional_check_locates_a_corrupted_backward():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(4)
    arrays = {"good": rng.standard_normal(4), "bad": rng.standard_normal(4)}

    def fn(arrs):
        loss = float(np.sum(w * arrs["good"]) + np.sum(arrs["bad"] ** 2))
        bad = 3.0 * arrs["bad"]  # wrong: 2x
        return loss, lambda: {"good": w.copy(), "bad": bad}

    errors = directional_errors(fn, arrays, 1e-5)
    assert errors["good"] < TOLERANCE <= errors["bad"]


# ---------------------------------------------------------------------------
# the pullback protocol
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_a_loss_only_call_runs_no_backward_pass(name, monkeypatch):
    calls = []

    def counted(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((nn, "conv_backward"), (nn, "conv_transpose_backward"),
                        (nn.Dense, "backward")):
        counted(owner, attr)
    fn, arrays, _ = _fragment(name)
    _, pullback = fn(arrays)
    assert calls == []
    pullback()
    assert {"conv_backward", "conv_transpose_backward", "backward"} <= set(calls)


@pytest.mark.parametrize("name", FRAGMENT_NAMES)
def test_a_probe_loss_is_bit_equal_to_an_analytic_loss(name):
    fn, arrays, _ = _fragment(name)
    probe_first = fn(arrays)[0]
    loss, pullback = fn(arrays)
    pullback()
    probe_after = fn(arrays)[0]
    assert np.float64(probe_first).tobytes() == np.float64(loss).tobytes()
    assert np.float64(probe_after).tobytes() == np.float64(loss).tobytes()


def test_grad_check_runs_one_pullback_before_any_probe():
    fn, arrays, step = _fragment("pipeline_prior_bce")
    events = []

    def recorded(arrs):
        events.append("loss")
        loss, pullback = fn(arrs)

        def recorded_pullback():
            events.append("pullback")
            return pullback()

        return loss, recorded_pullback

    report = nn.grad_check(recorded, arrays, TOLERANCE, probes=1, step=step)
    assert report.passed
    assert events[:2] == ["loss", "pullback"]
    assert events.count("pullback") == 1
    assert events.count("loss") == report.loss_calls == 1 + 2 * len(arrays)


def test_the_pretraining_step_matches_central_differences():
    report = nn.grad_check(*verification._pretrain_fragment(0), TOLERANCE,
                           probes=20)
    assert report.passed, f"{report.max_rel_error:.3e} at {report.worst_name}"
