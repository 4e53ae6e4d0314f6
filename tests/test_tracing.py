"""The benchmark's tracer finds every name it patches, and puts each back.

``perfbench/tracing.py`` wraps package functions by module attribute name.
Deleting or renaming one of them would break ``perfbench/run.py --trace 1``
only when the benchmark runs; entering and leaving ``traced()`` once here,
with no workload, makes that a test failure instead.
"""

from __future__ import annotations

from pathlib import Path

from heavycomb.distributions import HeavyTailDistribution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    names = [(module, attr) for module, attr, _ in tracing._SPANS] + list(tracing._SCALARS)
    names += [(HeavyTailDistribution, "inverse_survival"), (HeavyTailDistribution, "survival")]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in names}
    with tracing.traced():
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
