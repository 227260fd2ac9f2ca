"""The CI workflow's oldest-stack job runs the floors pyproject.toml admits,
its installed-command step passes its own check when run in process, and
every benchmark workload has a digest pin at its default seed."""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

from rasphy import cli

ROOT = Path(__file__).resolve().parent.parent


def test_pins_job_runs_the_oldest_stack():
    # both files are read as plain text, so that no YAML parser is needed
    project = (ROOT / "pyproject.toml").read_text()
    floors = (re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M),
              re.search(r'"numpy>=([\d.]+)"', project),
              re.search(r'"scipy>=([\d.]+)"', project))
    # the pins job is the matrix's one ``include`` entry
    entry = (ROOT / ".github/workflows/tier1.yml").read_text() \
        .partition("include:")[2]
    pins = (re.search(r'python-version: "([\d.]+)"', entry),
            re.search(r'"numpy==([\d.]+)\.\*"', entry),
            re.search(r'"scipy==([\d.]+)\.\*"', entry))
    assert None not in floors and None not in pins
    assert [m[1] for m in pins] == [m[1] for m in floors]


def test_installed_command_step_passes_its_own_check(tmp_path, monkeypatch):
    # the step's rasphy command lines, continuations joined, run through
    # cli.main from an empty directory: a renamed flag or a CLI
    # regression fails here, not first in CI
    step = (ROOT / ".github/workflows/tier1.yml").read_text() \
        .partition("- name: Installed rasphy command")[2] \
        .partition("- name:")[0]
    commands = [shlex.split(line)[1:]
                for line in step.replace("\\\n", " ").splitlines()
                if line.split()[:1] == ["rasphy"]]
    assert [argv[0] for argv in commands] == ["simulate", "pipeline"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    # the step's check of pipe/report.json
    summary = json.loads((tmp_path / "pipe/report.json").read_text())[
        "summary"]
    assert summary["ok"] and summary["rf"] == 0, summary


def test_every_workload_pinned_at_its_default_seed():
    # perfbench/run.py checks no output bytes when a workload's pin is
    # missing or was made at another seed; it only says "not pinned"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((ROOT / "perfbench/digests.json").read_text())
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look it up by name
    spec.loader.exec_module(workloads)
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(pins) == sorted(names)
    for name in names:
        assert pins[name]["seed"] == workloads.WORKLOADS[name].default_seed
