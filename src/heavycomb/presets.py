"""Named experiment presets at desk scale.

Each preset is a plain config dictionary (the same schema the CLI reads
from ``--config`` JSON files), so ``--preset NAME`` and a dumped JSON
file are interchangeable.  ``rho`` may be a list; the runner expands it
into one scenario per value.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

_STANDARD_METHODS = [
    {"kind": "standard", "distribution": "cauchy", "label": "cauchy"},
    {"kind": "standard", "distribution": "pareto:1", "label": "pareto"},
    {"kind": "standard", "distribution": "trunc_t:1:0.9", "label": "truncated_t1"},
    {"kind": "standard", "distribution": "frechet:1", "label": "frechet"},
    {"kind": "standard", "distribution": "levy", "label": "levy"},
    {"kind": "bonferroni", "label": "bonferroni"},
    {"kind": "fisher", "label": "fisher"},
]

PRESETS: dict[str, dict] = {
    # Type-I error of the combination tests under multivariate-t statistics.
    "table2a": {
        "command": "simulate",
        "model": {"family": "student_t", "n": 5, "nu": 2, "rho": [0.0, 0.5, 0.9, 0.99],
                  "sided": "one_sided"},
        "methods": _STANDARD_METHODS,
        "alphas": [0.05],
        "replications": 100_000,
        "seed": 20240501,
    },
    # Negatively correlated one-sided p-values from bivariate normal statistics.
    "tableS1": {
        "command": "simulate",
        "model": {"family": "normal", "n": 2, "rho": [-0.5, -0.9, -0.99],
                  "sided": "one_sided"},
        "methods": _STANDARD_METHODS,
        "alphas": [0.05],
        "replications": 50_000,
        "seed": 20240502,
    },
    # Error-to-alpha ratios as alpha shrinks, strong negative correlation.
    "tableS2": {
        "command": "simulate",
        "model": {"family": "normal", "n": 2, "rho": -0.9, "sided": "one_sided"},
        "methods": [
            {"kind": "standard", "distribution": "cauchy", "label": "cauchy"},
            {"kind": "standard", "distribution": "pareto:1", "label": "pareto"},
            {"kind": "standard", "distribution": "frechet:1", "label": "frechet"},
            {"kind": "bonferroni", "label": "bonferroni"},
        ],
        "alphas": [5e-2, 5e-3, 5e-4],
        "replications": 1_000_000,
        "seed": 20240503,
    },
    # minP cutoff calibration against the Bonferroni threshold.
    "tableS3": {
        "command": "calibrate-minp",
        "model": {"family": "normal", "n": 5, "rho": [0.0, 0.5, 0.9, 0.99],
                  "sided": "one_sided"},
        "alpha": 0.05,
        "replications": 100_000,
        "seed": 20240504,
    },
    # Equivalence-ratio decay between the Cauchy combination test and Bonferroni.
    "fig3": {
        "command": "equiv-ratio",
        "model": {"family": "normal", "n": 5, "rho": 0.5, "sided": "one_sided"},
        "distribution": "cauchy",
        "alphas": [5e-2, 1e-2, 1e-3, 1e-4],
        "replications": 1_000_000,
        "seed": 20240505,
    },
}


def get_preset(name: str) -> dict:
    try:
        return copy.deepcopy(PRESETS[name])
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
