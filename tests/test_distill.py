import numpy as np
import pytest

from mixbit import distill, model as m, zoo
from mixbit.errors import ConfigError, DivergenceError, UnsupportedLayerError

from oracles import bn_loss_ref


def _stat_batch():
    # channel mean 0.8, population std exactly 1
    return np.array([1.8, -0.2, 1.8, -0.2], dtype=np.float32).reshape(1, 1, 2, 2)


class TestStatLoss:
    def test_hand_value_single_bn(self):
        net = zoo.bn_passthrough_net(channels=1, hw=2, mean_target=0.5, std_target=1.0)
        _, trace = m.forward(net, _stat_batch(), record=True)
        loss = distill.bn_stat_loss(trace, net)
        # (0.8 - 0.5)^2 + (1.0 - 1.0)^2
        assert loss == pytest.approx(0.09, rel=1e-6)

    def test_zero_when_targets_match_trace(self):
        net = zoo.tiny_cnn(0)
        batch = np.random.default_rng(1).standard_normal((4, 2, 8, 8), dtype=np.float32)
        _, trace = m.forward(net, batch, record=True)
        targets = {i: (trace.bn_means[i], trace.bn_stds[i]) for i in m.bn_layers(net)}
        assert distill.bn_stat_loss(trace, net, targets) == 0.0

    def test_hand_value_two_bns(self):
        # first BN is an exact identity (eps=0), all inputs positive, so both
        # BNs observe the same raw batch
        bn1 = m.BatchNorm(1, running_mean=np.zeros(1, np.float32),
                          running_var=np.ones(1, np.float32),
                          gamma=np.ones(1, np.float32), beta=np.zeros(1, np.float32),
                          eps=0.0)
        bn2 = m.BatchNorm(1, running_mean=np.full(1, 0.5, np.float32),
                          running_var=np.ones(1, np.float32),
                          gamma=np.ones(1, np.float32), beta=np.zeros(1, np.float32))
        head = m.Linear(1, 2, weight=np.ones((2, 1), dtype=np.float32))
        net = m.ModelGraph(
            layers=[bn1, m.ReLU(), bn2, m.AvgPool(2, 2), head],
            input_shape=(1, 2, 2),
            class_count=2,
        )
        batch = np.array([1.8, 0.2, 1.8, 0.2], dtype=np.float32).reshape(1, 1, 2, 2)
        _, trace = m.forward(net, batch, record=True)
        # bn1 sees mean 1.0, std 0.8 against targets (0, 1): 1.0 + 0.04
        # bn2 sees the same batch against targets (0.5, 1): 0.25 + 0.04
        assert distill.bn_stat_loss(trace, net) == pytest.approx(1.33, rel=1e-6)

    def test_matches_independent_reference(self):
        net = zoo.toy_cnn(0)
        batch = np.random.default_rng(2).standard_normal((4, 3, 8, 8), dtype=np.float32)
        _, trace = m.forward(net, batch, record=True)
        # the reference walks the net in float64, the real trace in float32,
        # so agreement is limited by single-precision accumulation
        assert distill.bn_stat_loss(trace, net) == pytest.approx(
            bn_loss_ref(net, batch), rel=1e-5)


class TestConfig:
    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ConfigError):
            distill.DistillConfig(steps=0)

    def test_rejects_bad_lr_and_batch(self):
        with pytest.raises(ConfigError):
            distill.DistillConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            distill.DistillConfig(batch_size=0)
        with pytest.raises(ConfigError):
            distill.DistillConfig(seed=-1)


class TestSynthesize:
    def test_closed_form_fixture_converges(self):
        net = zoo.bn_passthrough_net()
        cfg = distill.DistillConfig(batch_size=4, steps=500, learning_rate=0.1, seed=0)
        out = distill.synthesize(net, cfg)
        assert out.final_loss <= 1e-4
        _, trace = m.forward(net, out.data, record=True)
        np.testing.assert_allclose(trace.bn_means[0], 0.5, atol=1e-2)
        np.testing.assert_allclose(trace.bn_stds[0], 1.5, atol=1e-2)

    def test_history_shape_and_final_loss(self):
        net = zoo.bn_passthrough_net()
        out = distill.synthesize(net, distill.DistillConfig(batch_size=4, steps=1))
        assert len(out.loss_history) == 1
        assert out.final_loss == out.loss_history[-1]
        out = distill.synthesize(net, distill.DistillConfig(batch_size=4, steps=7))
        assert len(out.loss_history) == 7

    def test_reduces_loss_from_seeded_start(self):
        for net, shape in [
            (zoo.bn_passthrough_net(), (3, 2, 2)),
            (zoo.tiny_cnn(0), (2, 8, 8)),
        ]:
            cfg = distill.DistillConfig(batch_size=8, steps=60, learning_rate=0.05, seed=3)
            out = distill.synthesize(net, cfg)
            x0 = np.random.default_rng(cfg.seed).standard_normal(
                (cfg.batch_size, *shape), dtype=np.float32)
            _, trace = m.forward(net, x0, record=True)
            initial = distill.bn_stat_loss(trace, net)
            assert out.final_loss <= initial
            assert out.final_loss == out.loss_history[-1]

    def test_deterministic(self):
        net = zoo.tiny_cnn(0)
        cfg = distill.DistillConfig(batch_size=4, steps=25, seed=11)
        a = distill.synthesize(net, cfg)
        b = distill.synthesize(net, cfg)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.loss_history == b.loss_history
        assert a.seed == b.seed == 11

    def test_diverges_with_oversized_learning_rate(self):
        net = zoo.bn_passthrough_net()
        cfg = distill.DistillConfig(batch_size=4, steps=100, learning_rate=500.0)
        with pytest.raises(DivergenceError, match="consecutive steps"):
            distill.synthesize(net, cfg)

    def test_diverges_when_the_returned_batch_is_above_the_threshold(self):
        # every one of the default 5 steps sits above the threshold, a streak far short of the patience
        cfg = distill.DistillConfig(batch_size=4, learning_rate=1.0)
        with pytest.raises(DivergenceError, match="final loss"):
            distill.synthesize(zoo.tiny_cnn(0), cfg)

    @pytest.mark.parametrize("learning_rate", [1.0, 3.0])
    def test_spikes_that_recover_pass(self, learning_rate):
        net = zoo.toy_cnn(0)
        cfg = distill.DistillConfig(steps=50, learning_rate=learning_rate)
        out = distill.synthesize(net, cfg)
        x0 = np.random.default_rng(cfg.seed).standard_normal((cfg.batch_size, *net.input_shape), dtype=np.float32)
        _, trace = m.forward(net, x0, record=True)
        threshold = distill._DIVERGENCE_FACTOR * distill.bn_stat_loss(trace, net)
        assert max(out.loss_history) > threshold >= out.final_loss

    def test_default_descent_runs_one_pass_a_step_and_one_more(self, monkeypatch):
        fused, passes = m._stat_loss_and_gradient, []
        monkeypatch.setattr(m, "_stat_loss_and_gradient", lambda *args, **kw: passes.append(1) or fused(*args, **kw))
        distill.synthesize(zoo.toy_cnn(0))
        assert len(passes) == distill.DistillConfig().steps + 1 == 6

    @pytest.mark.parametrize("seed", range(4))
    def test_default_descent_ends_below_fifty_plain_steps(self, seed):
        net = zoo.toy_cnn(seed)
        targets = m.bn_targets(net)
        x = np.random.default_rng(seed).standard_normal((32, *net.input_shape), dtype=np.float32)
        for _ in range(50):  # plain descent at learning rate 1.0
            x = x - np.float32(1.0) * m.input_gradient(net, x)
        _, trace = m.forward(net, x, record=True)
        out = distill.synthesize(net, distill.DistillConfig(seed=seed))
        # strictly below: a default of 50 plain steps at 1.0 would tie
        assert out.final_loss < distill.bn_stat_loss(trace, net, targets)

    def test_requires_batch_norm(self):
        with pytest.raises(UnsupportedLayerError):
            distill.synthesize(zoo.decorrelation_net(), distill.DistillConfig(steps=1))
