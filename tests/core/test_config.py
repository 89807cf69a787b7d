"""Tests for the SpikeDyn configuration dataclass."""

from __future__ import annotations

import pytest

from repro.core.config import SpikeDynConfig
from repro.core.weight_decay import DECAY_SCALE


class TestDefaults:
    def test_paper_defaults(self):
        config = SpikeDynConfig()
        assert config.n_input == 784
        assert config.n_exc == 400
        assert config.t_sim == 350.0
        assert config.max_rate == 63.75
        assert config.bit_precision == 32

    def test_scaled_down_preset(self):
        config = SpikeDynConfig.scaled_down(n_exc=16)
        assert config.n_exc == 16
        assert config.n_input == 196
        assert config.t_rest == 0.0
        assert config.t_sim < 350.0


class TestDerivedQuantities:
    def test_effective_w_decay_defaults_to_inverse_network_size(self):
        config = SpikeDynConfig(n_exc=400)
        assert config.effective_w_decay == pytest.approx(DECAY_SCALE / 400)

    def test_paper_best_decay_value_at_n400(self):
        """The default scale recovers the paper's w_decay = 1e-2 at N400 (Fig. 6)."""
        assert SpikeDynConfig(n_exc=400).effective_w_decay == pytest.approx(1e-2)

    def test_explicit_w_decay_wins(self):
        config = SpikeDynConfig(n_exc=400, w_decay=0.5)
        assert config.effective_w_decay == 0.5

    def test_effective_norm_total_default(self):
        config = SpikeDynConfig(n_input=784)
        assert config.effective_norm_total == pytest.approx(78.4)

    def test_explicit_norm_total_wins(self):
        assert SpikeDynConfig(norm_total=10.0).effective_norm_total == 10.0

    def test_adaptation_potential_formula(self):
        config = SpikeDynConfig(c_theta=0.5, theta_decay=1e-3, t_sim=350.0)
        assert config.adaptation_potential == pytest.approx(0.5 * 1e-3 * 350.0)

    def test_tau_theta_is_inverse_decay_rate(self):
        config = SpikeDynConfig(theta_decay=1e-3)
        assert config.tau_theta == pytest.approx(1000.0)

    def test_tau_theta_with_zero_decay_is_infinite(self):
        assert SpikeDynConfig(theta_decay=0.0).tau_theta == float("inf")

    def test_simulation_parameters(self):
        config = SpikeDynConfig(dt=0.5, t_sim=100.0, t_rest=50.0)
        params = config.simulation_parameters()
        assert params.dt == 0.5
        assert params.steps_per_sample == 200
        assert params.rest_steps == 100


class TestCopies:
    def test_with_network_size(self):
        base = SpikeDynConfig(n_exc=200, seed=7)
        resized = base.with_network_size(400)
        assert resized.n_exc == 400
        assert resized.seed == 7
        assert base.n_exc == 200

    def test_replace(self):
        config = SpikeDynConfig().replace(nu_post=0.5, seed=9)
        assert config.nu_post == 0.5
        assert config.seed == 9


class TestSerialization:
    def test_round_trip(self):
        original = SpikeDynConfig(n_exc=123, w_decay=0.02, seed=5)
        rebuilt = SpikeDynConfig.from_dict(original.to_dict())
        assert rebuilt == original

    def test_unknown_fields_are_rejected(self):
        data = SpikeDynConfig().to_dict()
        data["mystery_field"] = 1
        with pytest.raises(ValueError, match="mystery_field"):
            SpikeDynConfig.from_dict(data)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_input": 0},
        {"n_exc": -1},
        {"dt": 0.0},
        {"t_sim": -10.0},
        {"t_rest": -1.0},
        {"tau_m": 0.0},
        {"spike_threshold": 0.0},
        {"update_interval": 0.0},
        {"w_decay": -0.1},
        {"bit_precision": 0},
    ])
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            SpikeDynConfig(**kwargs)

    def test_w_max_must_exceed_w_min(self):
        with pytest.raises(ValueError):
            SpikeDynConfig(w_min=1.0, w_max=0.5)

    def test_update_interval_must_fit_presentation_window(self):
        with pytest.raises(ValueError):
            SpikeDynConfig(t_sim=5.0, update_interval=10.0)
