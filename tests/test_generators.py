import hashlib

import pytest

from rechml import formulas as fm
from rechml import testterms as tm
from rechml.generators import (
    TrialConfig,
    generate_formula,
    generate_lts,
    generate_sim_system,
    generate_test,
    spawn_rng,
)
from rechml.textio import format_formula, format_lts, format_test


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(alphabet_size=0)
    with pytest.raises(ValueError):
        TrialConfig(alphabet_size=26)
    with pytest.raises(ValueError):
        TrialConfig(max_states=0)
    bad = [
        ("trials", -3), ("property_trials", -1),
        ("max_formula_depth", -1), ("max_test_depth", -1),
        ("max_sim_vars", 0),
        ("tau_density", 2.0), ("tau_density", -0.1),
        ("divergence_bias", -5.0), ("divergence_bias", 1.5),
    ]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            TrialConfig(**{field: value})
    # the closed ends of every range are accepted
    TrialConfig(trials=0, property_trials=0, max_formula_depth=0, max_test_depth=0,
                max_sim_vars=1, tau_density=0.0, divergence_bias=1.0)


def test_alphabet_skips_the_success_letter():
    cfg = TrialConfig(alphabet_size=24)
    assert "w" not in cfg.alphabet()
    assert cfg.alphabet()[:3] == ["a", "b", "c"]


def test_spawn_rng_is_stable_and_path_sensitive():
    first = spawn_rng(0, "x", 1).random()
    again = spawn_rng(0, "x", 1).random()
    other = spawn_rng(0, "y", 1).random()
    assert first == again
    assert first != other


def test_generation_is_deterministic():
    cfg = TrialConfig()
    lts_a = generate_lts(cfg, spawn_rng(5, "g", 0))
    lts_b = generate_lts(cfg, spawn_rng(5, "g", 0))
    assert lts_a.states == lts_b.states
    assert lts_a.transitions == lts_b.transitions
    phi_a = generate_formula(cfg, spawn_rng(5, "f", 0), "full")
    phi_b = generate_formula(cfg, spawn_rng(5, "f", 0), "full")
    assert phi_a == phi_b
    t_a = generate_test(cfg, spawn_rng(5, "t", 0))
    t_b = generate_test(cfg, spawn_rng(5, "t", 0))
    assert t_a == t_b


@pytest.mark.parametrize("fragment,checker", [
    ("may", fm.is_mayhml),
    ("must", fm.is_musthml),
])
def test_generated_formulas_live_in_their_fragment(fragment, checker):
    cfg = TrialConfig()
    for trial in range(50):
        phi = generate_formula(cfg, spawn_rng(9, fragment, trial), fragment)
        assert not fm.free_vars(phi)
        assert checker(phi)


def test_generated_tests_are_closed():
    cfg = TrialConfig()
    for trial in range(50):
        t = generate_test(cfg, spawn_rng(9, "tests", trial))
        assert not tm.free_vars(t)


def test_divergence_bias_one_forces_a_tau_loop():
    cfg = TrialConfig(divergence_bias=1.0)
    for trial in range(20):
        lts = generate_lts(cfg, spawn_rng(13, "div", trial))
        assert lts.divergent_mask != 0


def test_sim_systems_are_closed_over_their_variables():
    cfg = TrialConfig()
    for trial in range(30):
        sim = generate_sim_system(cfg, spawn_rng(17, "sim", trial))
        assert 1 <= len(sim.variables) <= cfg.max_sim_vars
        assert 0 <= sim.index < len(sim.variables)
        for body in sim.bodies:
            assert fm.free_vars(body) <= set(sim.variables)


def test_generated_stream_frozen():
    # sha256 of the printed output of seeded draws: a change to how the
    # generators build their terms must keep every draw and its order
    cfg = TrialConfig()
    parts = []
    for trial in range(40):
        for fragment in ("may", "must", "full"):
            for scope in ((), ("X0", "X1")):
                rng = spawn_rng(21, fragment, len(scope), trial)
                parts.append(format_formula(generate_formula(cfg, rng, fragment, scope=scope)))
        parts.append(format_test(generate_test(cfg, spawn_rng(21, "test", trial))))
        parts.append(format_test(generate_test(cfg, spawn_rng(21, "scoped", trial), scope=("X0",))))
        sim = generate_sim_system(cfg, spawn_rng(21, "sim", trial))
        parts.append(" ; ".join(map(format_formula, sim.bodies)) + f" @{sim.index}")
        parts.append(format_lts(generate_lts(cfg, spawn_rng(21, "lts", trial))))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "bcaf06ae48c01538c7e658eef61a25a26f31d54e0c0d6050cbdd02de7d3c4099"


# Boundary configurations: one state, one letter and all 25, one equation,
# only visible and only silent actions.  They draw below 1 (which still
# consumes a bit) and reject draws at every bit width from 1 to 5.
BOUNDARY_CONFIGS = [
    TrialConfig(max_states=1, alphabet_size=1, max_sim_vars=1),
    TrialConfig(max_states=1, alphabet_size=25, max_sim_vars=1, tau_density=1.0),
    TrialConfig(max_states=20, alphabet_size=25, tau_density=0.0),
    TrialConfig(max_states=3, alphabet_size=1, tau_density=1.0, divergence_bias=1.0),
    TrialConfig(max_states=5, alphabet_size=6, max_sim_vars=3, tau_density=0.0,
                divergence_bias=0.0),
]


def test_generated_stream_frozen_at_boundaries():
    # sha256 of the printed output of seeded draws under boundary configs,
    # recorded before the generators drew through their own helper
    parts = []
    for c, cfg in enumerate(BOUNDARY_CONFIGS):
        for trial in range(15):
            for fragment in ("may", "must", "full"):
                for scope in ((), ("X0", "X1", "X2")):
                    rng = spawn_rng(23, c, fragment, len(scope), trial)
                    parts.append(format_formula(generate_formula(cfg, rng, fragment, scope=scope)))
            parts.append(format_test(generate_test(cfg, spawn_rng(23, c, "test", trial))))
            parts.append(format_test(generate_test(cfg, spawn_rng(23, c, "scoped", trial),
                                                   scope=("X0", "X1"))))
            sim = generate_sim_system(cfg, spawn_rng(23, c, "sim", trial))
            parts.append(" ; ".join(map(format_formula, sim.bodies)) + f" @{sim.index}")
            parts.append(format_lts(generate_lts(cfg, spawn_rng(23, c, "lts", trial))))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "d157016d0f32cb816b20d3e11892541a48082fa9e4ddafccbd2fb0de9c6572de"
