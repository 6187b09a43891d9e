import json

import pytest

from localizer_lab import build_config, load_config_file
from localizer_lab.errors import ConfigError


def test_defaults():
    cfg = build_config()
    assert cfg.model is None
    assert cfg.margin == 1.1
    assert cfg.smoothing_width == 0.25
    assert cfg.seed == 0


def test_file_then_override_precedence(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "model": "oscillator:n=40",
        "localizer.kappa": 0.5,
        "localizer.rho": 4.0,
        "seed": 3,
    }))
    file_values = load_config_file(path)
    cfg = build_config(file_values, overrides={"kappa": 1.0, "seed": None})
    assert cfg.model == "oscillator:n=40"
    assert cfg.kappa == 1.0       # flag wins
    assert cfg.rho == 4.0         # file survives
    assert cfg.seed == 3          # None means flag not given


def test_unknown_key_lists_known_ones(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"localizer.kapa": 0.5}))
    with pytest.raises(ConfigError) as exc:
        build_config(load_config_file(path))
    assert "localizer.kappa" in str(exc.value)


def test_nested_objects_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"localizer": {"kappa": 0.5}}))
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_localizer_choice_modes():
    assert build_config({"localizer.auto": True}).localizer_choice() == ("auto", None, None)
    mode, kappa, rho = build_config(
        {"localizer.kappa": 0.5, "localizer.rho": 2.0}).localizer_choice()
    assert (mode, kappa, rho) == ("manual", 0.5, 2.0)


def test_localizer_choice_conflicts():
    cfg = build_config({"localizer.auto": True, "localizer.kappa": 0.5,
                        "localizer.rho": 1.0})
    with pytest.raises(ConfigError):
        cfg.localizer_choice()
    with pytest.raises(ConfigError):
        build_config({"localizer.kappa": 0.5}).localizer_choice()
    with pytest.raises(ConfigError):
        build_config().localizer_choice()


def test_numeric_coercion_from_strings():
    cfg = build_config({"localizer.kappa": "0.25", "localizer.rho": "8"})
    assert cfg.kappa == 0.25
    assert cfg.rho == 8.0


def test_validation_errors():
    with pytest.raises(ConfigError):
        build_config({"localizer.margin": -1.0})
    with pytest.raises(ConfigError):
        build_config({"phi.smoothing_width": 0.3})
    with pytest.raises(ConfigError):
        build_config({"format": "yaml"})
    with pytest.raises(ConfigError):
        build_config({"seed": "seven"})
    with pytest.raises(ConfigError):
        build_config({"localizer.auto": "yes"})
    with pytest.raises(ConfigError):
        build_config({"localizer.kappa": "much"})


@pytest.mark.parametrize("key,value", [("format", "json"), ("tol.eps_eig", 1e-10)])
def test_removed_keys_fail_as_unknown(key, value):
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({key: value})


def test_margin_must_exceed_one():
    with pytest.raises(ConfigError, match="margin must exceed 1"):
        build_config({"localizer.margin": 0.9})


def test_phi_respects_width():
    cfg = build_config({"phi.smoothing_width": 0.2})
    phi = cfg.phi()
    assert phi.smoothing_width == 0.2
