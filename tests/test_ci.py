"""The CI workflow's oldest-stack job runs the floors pyproject.toml admits."""

import re
from pathlib import Path

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
