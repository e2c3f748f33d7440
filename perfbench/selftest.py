"""The benchmark's own tests, on tiny inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(capsys, *args: str) -> dict:
    assert run.main(["--size", "tiny", "--seconds", "0", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace, section):
    result = _result(capsys, "--workload", workload, "--seed", "3", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_a_mismatched_fingerprint_counts_as_a_failure(tmp_path, workload):
    bench = workloads.build(workload, 5, "tiny", tmp_path)
    checks = workloads.Checks()
    wrong = "0" * 64
    if workload == "served":
        bench.reference[bench.mix[0].name] = wrong
    else:
        key = bench.specs[0].name
        checks.reference[key] = wrong
    if workload == "served":
        bench.run_pass(workloads.Tally(), checks, segments=0)
    else:
        bench.run_pass(workloads.Tally(), checks)
    assert checks.failed >= 1
    assert any("fingerprint" in message for message in checks.messages)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_wrappers_leave_fingerprints_unchanged(tmp_path, workload):
    bench = workloads.build(workload, 7, "tiny", tmp_path)
    checks = workloads.Checks()
    kwargs = {"segments": 1} if workload == "served" else {}
    bench.run_pass(workloads.Tally(), checks, **kwargs)
    untraced = dict(checks.reference)
    recorder = tracing.Recorder()
    tracing.install(recorder, getattr(bench, "counter_dir", None))
    try:
        bench.run_pass(workloads.Tally(), checks, recorder, **kwargs)
    finally:
        recorder.uninstall()
    assert recorder.spans, "the traced pass recorded no span"
    assert checks.failed == 0, checks.messages
    assert checks.reference == untraced


def test_uninstall_restores_every_boundary(tmp_path):
    from repro.api.session import Session
    from repro.runtime.manager import RuntimeManager

    before = (Session.stream, Session.run_batch, RuntimeManager.run)
    recorder = tracing.Recorder()
    tracing.install(recorder, tmp_path)
    assert Session.stream is not before[0]
    recorder.uninstall()
    assert (Session.stream, Session.run_batch, RuntimeManager.run) == before


def test_refuses_escape_hatches(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_KERNEL", "0")
    assert run.main(["--workload", "online-mdf", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
