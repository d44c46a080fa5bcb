"""Warm runs: a session reuses its prepared program only while it is valid.

``PlutoSession.run`` keeps the prepared program and the dispatcher that
ran it.  Each test runs once,
changes one thing the warm entry depends on, runs again, and compares the
second run with a fresh session recording the same calls.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.api import PlutoService, PlutoSession, binarize_lut, color_grade_lut
from repro.api.session import cache_stats, clear_all_caches
from repro.core.designs import PlutoDesign
from repro.core.engine import PlutoConfig, PlutoEngine
from repro.errors import VerificationError
from repro.obs.trace import tracing
from repro.plan import ExecutionPlan

ELEMENTS = 256


def _program() -> tuple[PlutoSession, dict[str, np.ndarray]]:
    """Map, shift, move and a second map: parameters, aliasing and LUTs."""
    session = PlutoSession()
    px = session.pluto_malloc(ELEMENTS, 8, "px")
    graded = session.pluto_malloc(ELEMENTS, 8, "graded")
    shifted = session.pluto_malloc(ELEMENTS, 8, "shifted")
    moved = session.pluto_malloc(ELEMENTS, 8, "moved")
    out = session.pluto_malloc(ELEMENTS, 8, "out")
    session.api_pluto_map(color_grade_lut(), px, graded)
    session.api_pluto_shift(graded, shifted, bits=1, direction="r")
    session.api_pluto_move(px, moved)
    session.api_pluto_map(binarize_lut(63), shifted, out)
    rng = np.random.default_rng(15)
    return session, {"px": rng.integers(0, 256, ELEMENTS, dtype=np.uint64)}


def _fresh(session: PlutoSession) -> PlutoSession:
    """A session with no warm entries recording the same calls."""
    return PlutoSession(
        vectors=list(session.vectors), calls=list(session.calls), backend=session.backend
    )


def _assert_same(result, reference) -> None:
    assert sorted(result.outputs) == sorted(reference.outputs)
    for name, data in reference.outputs.items():
        assert np.array_equal(result.outputs[name], data), name
    assert result.latency_ns == reference.latency_ns
    assert result.energy_nj == reference.energy_nj
    assert result.backend == reference.backend


#: The session's front door, unsharded and sharded over the whole
#: device, each returning one ExecutionResult.
DOORS = {
    "run": lambda session, inputs: session.run(inputs),
    "run_over_the_device": lambda session, inputs: session.run(
        inputs, plan=ExecutionPlan(shards=16, channels=None, ranks=None)
    ),
}


@pytest.mark.parametrize("door", list(DOORS.values()), ids=list(DOORS))
def test_in_place_parameter_edit_prepares_again(door):
    session, inputs = _program()
    first = door(session, inputs)
    assert session.calls[1].operation == "shift"
    session.calls[1].parameters["bits"] = 2
    second = door(session, inputs)
    _assert_same(second, door(_fresh(session), inputs))
    assert not np.array_equal(second.outputs["out"], first.outputs["out"])


@pytest.mark.parametrize(
    "plan",
    [ExecutionPlan(shards=4), ExecutionPlan(shards=4, channels=None, ranks=None)],
    ids=["shards", "hierarchical"],
)
def test_an_edit_after_the_run_never_reaches_an_equal_program(plan):
    """Prepared programs are shared by structure, so an edit to one
    session's calls after its run must not change what a session
    recording the original calls runs."""
    session, inputs = _program()
    first = session.run(inputs, plan=plan)
    session.calls[1].parameters["bits"] = 2
    _assert_same(_program()[0].run(inputs, plan=plan), first)


@pytest.mark.parametrize(
    "plan",
    [ExecutionPlan(optimize=True), ExecutionPlan(shards=4, channels=None, ranks=None)],
    ids=["optimize", "over_the_device"],
)
def test_an_explicit_plan_prepares_one_artifact_for_every_front_door(plan):
    """The front door names no part of a plan's artifact, so the service
    serving the plan a run used reuses its artifact."""
    clear_all_caches()
    session, inputs = _program()
    first = session.run(inputs, plan=plan)
    before = cache_stats()["artifacts"]
    # A fresh session: the first one's warm entry would serve the request
    # before the artifact table is asked.
    second = PlutoService(_fresh(session), plan=plan).serve_chunk(None, [inputs])[0]
    after = cache_stats()["artifacts"]
    assert (before["misses"], before["hits"]) == (1, 0)
    assert (after["misses"], after["hits"]) == (1, 1)
    _assert_same(second, first)


def test_recorded_call_prepares_again():
    session, inputs = _program()
    session.run(inputs)
    counted = session.pluto_malloc(ELEMENTS, 8, "counted")
    session.api_pluto_map(binarize_lut(127), session.vectors[3], counted)
    second = session.run(inputs)
    assert "counted" in second.outputs
    _assert_same(second, _fresh(session).run(inputs))


def test_appended_duplicate_call_fails_verification_alike():
    session, inputs = _program()
    engine = PlutoEngine(PlutoConfig(verify="always"))
    session.run(inputs, engine=engine)
    session.calls.append(session.calls[0])  # writes "graded" twice
    with pytest.raises(VerificationError) as warm:
        session.run(inputs, engine=engine)
    with pytest.raises(VerificationError) as fresh:
        _fresh(session).run(inputs, engine=engine)
    codes = sorted(d.code for d in warm.value.diagnostics)
    assert codes
    assert sorted(d.code for d in fresh.value.diagnostics) == codes


def test_reassigned_backend_is_followed():
    session, inputs = _program()
    assert session.run(inputs).backend == "vectorized"
    session.backend = "functional"
    second = session.run(inputs)
    assert second.backend == "functional"
    _assert_same(second, _fresh(session).run(inputs))


def test_functional_backend_keeps_no_warm_entry():
    """The oracle's subarray images must not outlive its runs."""
    session, inputs = _program()
    session.backend = "functional"
    session.run(inputs)
    assert session._warm == {}


def test_switching_engines_matches_fresh_sessions():
    session, inputs = _program()
    engine_a = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    engine_b = PlutoEngine(PlutoConfig(design=PlutoDesign.GMC))
    results = [session.run(inputs, engine=engine) for engine in (engine_a, engine_b, engine_a)]
    assert results[0].latency_ns != results[1].latency_ns
    for result, engine in zip(results, (engine_a, engine_b, engine_a)):
        _assert_same(result, _fresh(session).run(inputs, engine=engine))


def test_clear_all_caches_counts_the_fresh_session_miss():
    session, inputs = _program()
    session.run(inputs)
    clear_all_caches()
    warm = session.run(inputs)
    warm_programs = cache_stats()["programs"]
    clear_all_caches()
    fresh = _fresh(session).run(inputs)
    assert warm_programs["misses"] == 1
    assert cache_stats()["programs"] == warm_programs
    _assert_same(warm, fresh)


def test_auto_plan_reports_the_planner_memo_after_the_first_run():
    clear_all_caches()
    session, inputs = _program()
    first = session.run(inputs, plan="auto")
    second = session.run(inputs, plan="auto")
    fresh = _fresh(session).run(inputs, plan="auto")
    assert first.planner.cached is False
    assert second.planner.cached is True
    assert fresh.planner.cached is True
    for result in (first, second, fresh):
        assert result.execution_plan == first.execution_plan
        assert result.planner.chosen == first.planner.chosen
        assert result.planner.predicted_makespan_ns == result.latency_ns
    assert second.planner.predicted_makespan_ns == first.planner.predicted_makespan_ns
    _assert_same(second, fresh)


def test_traced_warm_run_keeps_the_cold_annotations():
    clear_all_caches()
    session, inputs = _program()
    with tracing():
        cold = session.run(inputs, plan="auto")
        warm = session.run(inputs, plan="auto")
    assert cold.request_trace.attributes
    assert warm.request_trace.attributes == cold.request_trace.attributes
    assert cold.request_trace.find("plan") is not None
    assert warm.request_trace.find("execute") is not None
    for stage in ("plan", "optimize", "compile", "verify"):
        assert warm.request_trace.find(stage) is None, stage


def test_mutating_a_result_leaves_the_next_result_and_inputs_alone():
    session, inputs = _program()
    caller = {name: data.copy() for name, data in inputs.items()}
    first = session.run(inputs)
    expected = {name: data.copy() for name, data in first.outputs.items()}
    for data in (*first.outputs.values(), *first.registers.values()):
        data[...] = 7
    second = session.run(inputs)
    for name, data in expected.items():
        assert np.array_equal(second.outputs[name], data), name
    for name, data in caller.items():
        assert np.array_equal(inputs[name], data), name


CLONES = {
    "pickle": lambda session: pickle.loads(pickle.dumps(session)),
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("clone", list(CLONES.values()), ids=list(CLONES))
def test_copied_session_runs_without_the_warm_entry(clone):
    session, inputs = _program()
    first = session.run(inputs)
    copied = clone(session)
    assert copied._warm == {}
    _assert_same(copied.run(inputs), first)
