"""Seeded workload inputs.  The program only ever sees what these build.

- ``mc_sweep`` takes the seed as the Monte Carlo base seed and scores
  mutants ``0, 1, 2, ...`` of it, so a seed fixes the mutant sequence.
- The solubility workloads take the preset's parameters from their safe
  ranges (vial capacities 10 mg / 20 ml, hotplate limit 120 °C,
  centrifuge limit 6000 rpm) and replay the 45-command stream the preset
  issues with two dissolution rounds.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

#: The seed the pinned output digests belong to.
DEFAULT_SEED = 2024
#: The ``hein`` deck's robot arm.  Latency percentiles cover its commands
#: only: 21 of the 45 solubility commands are sub-millisecond device
#: commands, so a median over all commands sits on the lower edge of the
#: arm-command cluster and moves by ~20% between runs.
ARM = "ur3e"


def solubility_params(seed: int) -> Dict[str, Any]:
    """Preset parameters for *seed*, inside every device's safe range."""
    rng = random.Random(seed)
    return {
        "amount_mg": round(rng.uniform(2.0, 8.0), 2),
        "initial_solvent_ml": round(rng.uniform(2.0, 8.0), 2),
        "temperature": round(rng.uniform(30.0, 90.0), 1),
        "dissolution_rounds": 2,
        "centrifuge_rpm": float(rng.randrange(1000, 5001, 50)),
    }


class _Recorder:
    """Forwards device calls to a proxy, logging each as a wire command."""

    def __init__(self, proxy: Any, name: str, log: List[Dict[str, Any]]) -> None:
        self._proxy, self._name, self._log = proxy, name, log

    def __getattr__(self, method: str) -> Any:
        target = getattr(self._proxy, method)
        if not callable(target):
            return target

        def call(*args: Any, **kwargs: Any) -> Any:
            self._log.append(
                {"device": self._name, "method": method, "args": list(args), "kwargs": dict(kwargs)}
            )
            return target(*args, **kwargs)

        return call


def solubility_stream(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The device commands the solubility preset issues with *params*.

    Recorded from an unmonitored run of the preset on a fresh ``hein``
    deck; each entry is a wire command ``{device, method, args, kwargs}``."""
    from repro.workflow.context import build_context
    from repro.workflow.executor import execute_dag
    from repro.workflow.presets import build_preset

    ctx = build_context("hein", monitored=False)
    log: List[Dict[str, Any]] = []
    ctx.proxies = {name: _Recorder(proxy, name, log) for name, proxy in ctx.proxies.items()}
    result = execute_dag(build_preset("solubility", params), ctx)
    if not result.completed:
        raise RuntimeError(f"solubility preset did not complete with {params}: {result}")
    return log
