"""Shared fixture: a conjugate-gradient run that goes non-finite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.physical.placement import placer


@pytest.fixture()
def diverge_at_stage(monkeypatch):
    """``diverge_at_stage(s)`` makes λ stage ``s`` of every ``place()`` call
    return a NaN objective and NaN coordinates.  It returns a list that
    grows by one entry per ``place()`` call: the number of λ stages run."""

    def install(stage: int) -> list:
        real = placer.conjugate_gradient
        objectives, stages_run = [], []

        def conjugate_gradient(objective, z, max_iterations):
            # Each place() call builds its own objective.
            if not objectives or objectives[-1] is not objective:
                objectives.append(objective)
                stages_run.append(0)
            stages_run[-1] += 1
            result = real(objective, z, max_iterations=max_iterations)
            if stages_run[-1] == stage:
                nan_z = np.full_like(result.z, np.nan)
                return dataclasses.replace(result, z=nan_z, value=np.nan)
            return result

        monkeypatch.setattr(placer, "conjugate_gradient", conjugate_gradient)
        return stages_run

    return install
