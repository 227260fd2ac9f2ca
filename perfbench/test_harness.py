"""Self-test of the benchmark harness at toy size (n=16, k=2000).

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric of BENCHMARK.json is printed once with its unit,
that a perturbed output counts as failed, and that traced self times are
non-negative and add up to no more than their replicate span.
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import numpy as np  # noqa: E402

import rasphy as rp  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# seeds at which the toy tree workloads reconstruct the true 16-leaf tree
TOY_SEED = {"sim-n5-discrete": 1, "cli-n128-gamma": 1,
            "infer-n512-discrete": 2}
TOY = {
    "sim-n5-discrete": functools.partial(W.SimN5Discrete, k=2000),
    "cli-n128-gamma": functools.partial(W.CliN128Gamma, n=16, k=2000),
    "infer-n512-discrete": functools.partial(W.InferN512Discrete, n=16,
                                             k=2000),
}


def run_main(monkeypatch, capsys, tmp_path, workload, trace):
    monkeypatch.setattr(W, "WORKLOADS", TOY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", workload, "--seed", str(TOY_SEED[workload]),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_once_with_its_unit(monkeypatch, capsys,
                                                 tmp_path, workload, trace):
    lines, result = run_main(monkeypatch, capsys, tmp_path, workload, trace)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    printed = [line.split() for line in lines if line.startswith("metric ")]
    names = [p[1] for p in printed]
    assert sorted(names) == sorted(m["name"] for m in wanted)
    assert len(set(names)) == len(names)
    units = {p[1]: p[3] for p in printed}
    for m in wanted:
        assert units[m["name"]] == m["unit"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace


def test_workload_names_match_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)


def _flip_one_byte(aln):
    data = aln.data.copy()
    data[0, 0] ^= 1
    return rp.Alignment(data, aln.r, aln.hidden_lambdas)


def test_flipped_alignment_byte_fails():
    wl = TOY["sim-n5-discrete"]()
    inp = wl.prepare(TOY_SEED[wl.name], None)
    aln, exact = wl.replicate(inp)
    good = wl.evaluate(inp, (aln, exact), None)
    assert not good.failed and good.correct
    bad = wl.evaluate(inp, (_flip_one_byte(aln), exact), good.parts)
    assert bad.failed and not bad.correct
    assert "alignment" in bad.reason


def test_swapped_leaf_fails():
    wl = TOY["infer-n512-discrete"]()
    inp = wl.prepare(TOY_SEED[wl.name], None)
    report = wl.replicate(inp)
    good = wl.evaluate(inp, report, None)
    assert not good.failed and good.correct
    topo = report.topology
    truth = inp["tree"].topology()
    # swap leaf 0 with the first leaf that changes the topology
    for j in range(1, len(topo.labels)):
        labels = list(topo.labels)
        labels[0], labels[j] = labels[j], labels[0]
        swapped = rp.Topology(topo.edges, tuple(labels))
        if rp.robinson_foulds(swapped, truth):
            break
    bad = wl.evaluate(inp, dataclasses.replace(report, topology=swapped),
                      good.parts)
    assert bad.failed and not bad.correct


def test_perturbed_replicate_raises_failed_fraction():
    wl = TOY["sim-n5-discrete"]()
    calls = []
    honest = wl.replicate

    def every_other_flipped(inp):
        aln, exact = honest(inp)
        calls.append(1)
        return (_flip_one_byte(aln) if len(calls) % 2 == 0 else aln), exact

    wl.replicate = every_other_flipped
    record = run.measure(wl, TOY_SEED[wl.name], 0.5, 0, None)
    assert record["attempted"] >= 2
    assert record["failed"] >= 1
    assert record["end_to_end"]["ok_fraction"] < 1.0


@pytest.mark.parametrize("workload", ["cli-n128-gamma", "infer-n512-discrete"])
def test_traced_self_times(tmp_path, workload):
    wl = TOY[workload]()
    record = run.measure(wl, TOY_SEED[workload], 0.0, 1, tmp_path)
    tracer = record["tracer"]
    own = tracer.self_times()
    assert min(own.values()) >= -1e-9
    roots = [s for s in tracer.spans if s[3] == "replicate"]
    assert roots
    children = {}
    for s in tracer.spans:
        children.setdefault(s[1], []).append(s[0])
    for root in roots:
        subtree, todo = [], [root[0]]
        while todo:
            sid = todo.pop()
            subtree.append(sid)
            todo.extend(children.get(sid, []))
        assert sum(own[sid] for sid in subtree) <= root[5] - root[4] + 1e-9
        assert len(subtree) > 1
    layers = record["per_layer"]
    assert sum(layers[f"{name}.self_s"] for name in spans.LAYERS) \
        <= layers["trace.replicate_s"] + 1e-9
    assert layers["pipeline.run_pipeline.s"] > 0
    assert abs(layers["pipeline.unstaged_s"]) \
        <= 0.05 * layers["pipeline.run_pipeline.s"] + 0.05
    assert not record["warnings"]
    assert np.isfinite(layers["trace.overhead_s"])
