"""Flat key-value run configuration.

Format: one ``section.key = value`` per line, ``#`` comments, UTF-8.  An
empty file yields the default desk-scale scenario: a 0.126 m box at grid
resolution 9 with square iron/coil shells on grid lines, the coil-tube
material values (sigma1 = 1e6, R = 100 Ohm, nu = 1.989e3 / 7.958e5) and the
1600-turn winding, driven by u(t) = 5e4 sin(300 pi t) over 0.08 s with 300
implicit-Euler steps.  Unknown keys are rejected with their line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import MaterialSpec, WindingSpec
from .mesh import GeometrySpec, check_grid_aligned


class ConfigError(ValueError):
    """Invalid configuration file or values (CLI exit code 2)."""


_DEFAULTS = {
    "geometry.c1": ("float", 0.063),
    "geometry.c2": ("float", 0.063),
    "geometry.c3": ("float", 0.063),
    "geometry.r1": ("float", 0.007),
    "geometry.r2": ("float", 0.021),
    "geometry.r3": ("float", 0.035),
    "geometry.r4": ("float", 0.049),
    "geometry.z1": ("float", -0.049),
    "geometry.z2": ("float", 0.049),
    "geometry.z3": ("float", -0.021),
    "geometry.z4": ("float", 0.021),
    "geometry.resolution": ("int", 9),
    "material.sigma1": ("float", 1.0e6),
    "material.nu_iron": ("float", 1.989e3),
    "material.nu_air": ("float", 7.958e5),
    "material.R": ("float", 100.0),
    "winding.turns": ("float", 1600.0),
    "winding.cross_section": ("float", 2.0e-4),
    "mor.tol_adi": ("float", 1.0e-12),
    "mor.maxit_adi": ("int", 80),
    "mor.eps_shift": ("float", 0.1),      # predicted reduction per shift cycle
    "mor.order": ("int", 0),            # 0 = choose from the error bound
    "mor.tol_hsv": ("float", 0.0),      # error-bound target; 0 = auto: 1e-8 * ||R^-1||
    "mor.lanczos_maxit": ("int", 150),
    "mor.lanczos_tol": ("float", 1.0e-9),
    "analysis.freq_min": ("float", 1.0e-4),
    "analysis.freq_max": ("float", 1.0e6),
    "analysis.freq_points": ("int", 200),
    "analysis.t_final": ("float", 0.08),
    "analysis.steps": ("int", 300),
    "analysis.amplitude": ("float", 5.0e4),
    "analysis.frequency": ("float", 150.0),
    "analysis.passivity_samples": ("int", 50),
    "oracle.dense_cap": ("int", 8000),
    "output.directory": ("str", "out"),
}


def default_value(key):
    """The built-in default of config key ``key``."""
    return _DEFAULTS[key][1]


@dataclass
class RunConfig:
    """Validated configuration for one pipeline run."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: v for k, (_, v) in _DEFAULTS.items()}
        merged.update(self.values)
        self.values = merged
        self.geometry = GeometrySpec(
            c1=self["geometry.c1"], c2=self["geometry.c2"], c3=self["geometry.c3"],
            r1=self["geometry.r1"], r2=self["geometry.r2"],
            r3=self["geometry.r3"], r4=self["geometry.r4"],
            z1=self["geometry.z1"], z2=self["geometry.z2"],
            z3=self["geometry.z3"], z4=self["geometry.z4"],
            resolution=self["geometry.resolution"],
        )
        try:
            check_grid_aligned(self.geometry)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.material = MaterialSpec(
            sigma1=self["material.sigma1"],
            nu_iron=self["material.nu_iron"],
            nu_air=self["material.nu_air"],
            R=np.array([[self["material.R"]]]),
        )
        self.winding = WindingSpec(
            turns=self["winding.turns"],
            cross_section=self["winding.cross_section"],
            r3=self.geometry.r3, r4=self.geometry.r4,
            z3=self.geometry.z3, z4=self.geometry.z4,
        )
        for key in ("mor.tol_adi", "mor.eps_shift", "mor.lanczos_tol",
                    "analysis.t_final", "analysis.freq_min", "analysis.freq_max"):
            if not self[key] > 0:
                raise ConfigError(f"{key} must be positive")
        for key in ("analysis.steps", "analysis.freq_points", "oracle.dense_cap",
                    "mor.maxit_adi", "mor.lanczos_maxit", "analysis.passivity_samples"):
            if not self[key] >= 1:
                raise ConfigError(f"{key} must be >= 1")
        if not self["mor.eps_shift"] < 1:
            raise ConfigError("mor.eps_shift must be below 1")
        if self["mor.order"] < 0 or self["mor.tol_hsv"] < 0:
            raise ConfigError("mor.order and mor.tol_hsv must be nonnegative")

    def __getitem__(self, key):
        return self.values[key]

    @property
    def tol_hsv(self):
        if self["mor.tol_hsv"] > 0:
            return self["mor.tol_hsv"]
        rinv = np.linalg.inv(self.material.R)
        return 1e-8 * np.linalg.norm(rinv, 2)

    @property
    def drive(self):
        """The configured voltage drive u(t) = amplitude * sin(2 pi f t)."""
        amp = self["analysis.amplitude"]
        om = 2.0 * np.pi * self["analysis.frequency"]
        return lambda t: np.array([amp * np.sin(om * t)])


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file; errors carry line numbers."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _DEFAULTS[key][0]
        try:
            if kind == "int":
                values[key] = int(val)
            elif kind == "float":
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid {kind} value {val!r}") from exc
    try:
        return RunConfig(values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def default_config() -> RunConfig:
    return RunConfig({})
