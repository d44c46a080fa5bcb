"""Front-door conformance: one program, one plan, one answer.

The session, the async service, its synchronous ``serve_chunk`` path (how
a pool worker serves) and a service warm-started from the shared artifact
store all prepare and execute a program the same way.  Under each plan
below the four must agree exactly on outputs, modelled latency and
energy, the concrete plan that ran and the planner's choice; a malformed
program must be rejected with the same diagnostics by the session and
the service.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import PlutoService, PlutoSession, binarize_lut, color_grade_lut
from repro.api.session import clear_all_caches
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.errors import VerificationError
from repro.plan import ExecutionPlan
from repro.serve.store import SharedArtifactStore

ELEMENTS = 1024

PLANS = {
    "default": None,
    "shards": ExecutionPlan(shards=4),
    "optimize": ExecutionPlan(optimize=True),
    "hierarchical": ExecutionPlan(shards=8, channels=None, ranks=None),
    "auto": "auto",
}


def _program() -> tuple[PlutoSession, dict[str, np.ndarray]]:
    """A fusible two-query LUT chain, so the optimizer has work to do."""
    session = PlutoSession()
    px = session.pluto_malloc(ELEMENTS, 8, "px")
    graded = session.pluto_malloc(ELEMENTS, 8, "graded")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_map(color_grade_lut(), px, graded)
    session.api_pluto_map(binarize_lut(127), graded, out)
    rng = np.random.default_rng(5)
    return session, {"px": rng.integers(0, 256, ELEMENTS)}


async def _submit(session: PlutoSession, engine: PlutoEngine, plan, inputs):
    async with PlutoService(session, engine=engine, plan=plan) as service:
        return await service.submit(inputs)


def _observed(result) -> tuple:
    """What every front door must agree on besides the outputs."""
    chosen = None if result.planner is None else result.planner.chosen
    return (result.latency_ns, result.energy_nj, result.execution_plan, chosen)


@pytest.mark.parametrize("plan", list(PLANS.values()), ids=list(PLANS))
def test_every_front_door_agrees(plan, tmp_path):
    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    session, inputs = _program()

    doors = {
        "session.run": session.run(inputs, engine=engine, plan=plan),
        "service.submit": asyncio.run(_submit(session, engine, plan, inputs)),
        "service.serve_chunk": PlutoService(session, engine=engine, plan=plan).serve_chunk(
            None, [inputs]
        )[0],
    }
    store = SharedArtifactStore(tmp_path / "store")
    store.export(session.calls, engine, plan=plan)
    clear_all_caches()
    assert store.warm_start(engine).installed == 1
    doors["warm service"] = asyncio.run(_submit(session, engine, plan, inputs))

    reference = doors["session.run"]
    for door, result in doors.items():
        assert _observed(result) == _observed(reference), door
        assert sorted(result.outputs) == sorted(reference.outputs), door
        for name, data in reference.outputs.items():
            assert np.array_equal(result.outputs[name], data), (door, name)


def test_malformed_program_is_rejected_alike():
    session, inputs = _program()
    session.calls.append(session.calls[0])  # writes "graded" twice
    engine = PlutoEngine(PlutoConfig(verify="always"))

    with pytest.raises(VerificationError) as from_run:
        session.run(inputs, engine=engine)
    with pytest.raises(VerificationError) as from_service:
        asyncio.run(_submit(session, engine, None, inputs))

    codes = sorted(d.code for d in from_run.value.diagnostics)
    assert codes
    assert sorted(d.code for d in from_service.value.diagnostics) == codes
