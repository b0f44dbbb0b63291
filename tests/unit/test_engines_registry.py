"""Unit tests for the unified engine registry (repro.engines) and the
versioned batch-spec schema it rides with."""

import json
import os

import pytest

from repro.engines import (Engine, SpecOutcome, derive_spec_seed,
                           engine_names, get_engine)
from repro.errors import CompileError, EclError
from repro.farm.jobs import SimJob, StimulusSpec
from repro.farm.spec import SPEC_VERSION, check_version, load_spec
from repro.pipeline import Pipeline

ECHO = """
module echo (input pure ping, output pure pong)
{
    while (1) { await (ping); emit (pong); }
}
"""


@pytest.fixture(scope="module")
def echo_handle():
    return Pipeline().compile_text(ECHO, filename="echo").module("echo")


# -- registry ----------------------------------------------------------


@pytest.mark.parametrize("name", engine_names() + ("warp",))
def test_engine_name_is_registry_derived(name, echo_handle, capsys):
    """Every consumer of engine names takes them from the registry:
    jobs accept exactly its names, and exactly the engines tagged
    "step" bind a per-instant reactor everywhere one is asked for."""
    from repro.analysis import compare_on_trace
    from repro.cli import _build_parser

    def simulate_accepts():
        try:
            _build_parser().parse_args(
                ["simulate", "f.ecl", "-m", "echo", "--trace", "t",
                 "--engine", name])
        except SystemExit:
            capsys.readouterr()
            return False
        return True

    if name not in engine_names():
        with pytest.raises(CompileError):
            echo_handle.reactor(engine=name)
        with pytest.raises(EclError):
            get_engine(name)
        with pytest.raises(EclError):
            SimJob(design="d", module="echo", engine=name)
        assert not simulate_accepts()
        return
    assert SimJob(design="d", module="echo", engine=name).engine == name
    if "step" not in get_engine(name).capabilities():
        assert not simulate_accepts()
        return
    assert hasattr(echo_handle.reactor(engine=name), "react")
    trace = [{"ping": None}, {}, {"ping": None}]
    assert compare_on_trace(echo_handle.kernel(), echo_handle.efsm(), trace,
                            engine=name) is None
    assert simulate_accepts()


def test_get_engine_caches_and_rejects_unknown():
    assert get_engine("native") is get_engine("native")
    assert isinstance(get_engine("vector"), Engine)
    with pytest.raises(EclError) as caught:
        get_engine("warp")
    assert "unknown engine" in str(caught.value)


def test_capabilities():
    assert "vector_sweep" in get_engine("vector").capabilities()
    assert "requires_numpy" in get_engine("vector").capabilities()
    assert "compiled" in get_engine("native").capabilities()
    assert "reference" in get_engine("interp").capabilities()
    assert "tasks" in get_engine("rtos").capabilities()
    assert get_engine("equivalence").capabilities() == {"lockstep"}
    for name in ("interp", "efsm", "native", "rtos"):
        assert get_engine(name).available() is True
        get_engine(name).require()  # no-op


def test_equivalence_has_no_adapter(echo_handle):
    job = SimJob(design="d", module="echo", engine="equivalence")
    with pytest.raises(EclError):
        get_engine("equivalence").build(lambda name: echo_handle, job)


def test_reactor_resolution(echo_handle):
    native = get_engine("native").reactor(echo_handle)
    assert type(native).__name__ == "NativeReactor"
    with pytest.raises(EclError):
        get_engine("rtos").reactor(echo_handle)
    with pytest.raises(EclError):
        get_engine("equivalence").reactor(echo_handle)


def test_run_trace_steps_explicit_instants(echo_handle):
    # The first instant arms the (non-immediate) await; later pings emit.
    trace = [{"ping": None}, {}, {"ping": None}, {"ping": None}]
    records = get_engine("native").run_trace(echo_handle, trace)
    assert [record["emitted"] for record in records] == [[], [], ["pong"],
                                                         ["pong"]]
    assert records == get_engine("interp").run_trace(echo_handle, trace)


def test_run_spec_is_engine_uniform(echo_handle):
    spec = StimulusSpec.random(length=12)
    outcomes = {
        name: get_engine(name).run_spec(
            echo_handle, spec, n_instances=4, coverage=True)
        for name in ("interp", "efsm", "native")
    }
    for name, outcome in outcomes.items():
        assert isinstance(outcome, SpecOutcome), name
        assert len(outcome) == 4
        assert outcome.errors == [None] * 4
    assert outcomes["interp"].records == outcomes["native"].records
    assert outcomes["efsm"].records == outcomes["native"].records
    # efsm/native mark real state bitmaps; interp only marks emits.
    efsm_cov = outcomes["efsm"].coverage[0]
    native_cov = outcomes["native"].coverage[0]
    assert efsm_cov.as_payload() == native_cov.as_payload()


def test_run_spec_derived_seeds_are_canonical():
    spec = StimulusSpec.random(length=5, salt=3)
    assert derive_spec_seed(spec, 0) != derive_spec_seed(spec, 1)
    assert derive_spec_seed(spec, 2) == derive_spec_seed(spec, 2)
    from repro.runtime.vector import NUMPY_AVAILABLE

    if NUMPY_AVAILABLE:
        from repro.runtime.vector import derive_seed

        assert derive_seed(spec, 7) == derive_spec_seed(spec, 7)


# -- spec v2 -----------------------------------------------------------


def write_spec(tmp_path, document):
    path = os.path.join(tmp_path, "spec.json")
    with open(path, "w") as handle:
        json.dump(document, handle)
    return path


def ecl_file(tmp_path):
    path = os.path.join(tmp_path, "echo.ecl")
    with open(path, "w") as handle:
        handle.write(ECHO)
    return "echo.ecl"


def test_spec_v2_engine_and_n_instances(tmp_path):
    tmp_path = str(tmp_path)
    document = {
        "spec_version": 2,
        "designs": {"echo": ecl_file(tmp_path)},
        "jobs": [{"design": "echo", "modules": ["echo"],
                  "engine": "vector", "n_instances": 5, "length": 8}],
    }
    _designs, jobs, _settings = load_spec(write_spec(tmp_path, document))
    assert len(jobs) == 5
    assert all(job.engine == "vector" for job in jobs)
    assert all(job.stimulus.length == 8 for job in jobs)


def test_spec_v1_upconverts(tmp_path):
    tmp_path = str(tmp_path)
    document = {
        "designs": {"echo": ecl_file(tmp_path)},
        "jobs": [{"design": "echo", "modules": ["echo"],
                  "engines": ["native"], "traces": 3}],
    }
    _designs, jobs, _settings = load_spec(write_spec(tmp_path, document))
    assert len(jobs) == 3
    assert jobs[0].engine == "native"


def test_spec_future_version_rejected(tmp_path):
    tmp_path = str(tmp_path)
    document = {
        "spec_version": SPEC_VERSION + 1,
        "designs": {"echo": ecl_file(tmp_path)},
        "jobs": [{"design": "echo", "modules": ["echo"]}],
    }
    with pytest.raises(EclError) as caught:
        load_spec(write_spec(tmp_path, document))
    assert "newer" in str(caught.value)


@pytest.mark.parametrize("version", [0, -1, "2", True, 2.0])
def test_spec_bad_version_value_rejected(version):
    with pytest.raises(EclError):
        check_version({"spec_version": version})


@pytest.mark.parametrize("conflict", [
    {"engine": "vector", "engines": ["native"]},
    {"traces": 2, "n_instances": 3},
])
def test_spec_conflicting_spellings_rejected(tmp_path, conflict):
    tmp_path = str(tmp_path)
    entry = {"design": "echo", "modules": ["echo"]}
    entry.update(conflict)
    document = {"spec_version": 2,
                "designs": {"echo": ecl_file(tmp_path)}, "jobs": [entry]}
    with pytest.raises(EclError):
        load_spec(write_spec(tmp_path, document))


def test_campaign_spec_shares_schema(tmp_path):
    from repro.verify.spec import load_campaign_spec

    tmp_path = str(tmp_path)
    document = {
        "spec_version": 2,
        "designs": {"echo": {"text": ECHO}},  # inline form now accepted
        "design": "echo",
        "module": "echo",
        "engine": "native",
        "rounds": 1,
        "jobs_per_round": 2,
        "length": 4,
    }
    campaign = load_campaign_spec(write_spec(tmp_path, document))
    assert campaign.engine == "native"
    with_version = dict(document, spec_version=SPEC_VERSION + 1)
    with pytest.raises(EclError):
        load_campaign_spec(write_spec(tmp_path, with_version))


def test_serve_rejects_future_spec_version():
    from repro.farm.spec import expand_document

    document = {"spec_version": SPEC_VERSION + 1,
                "jobs": [{"design": "echo", "modules": ["echo"]}]}
    with pytest.raises(EclError):
        expand_document(document, {"echo": ECHO})
