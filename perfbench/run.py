"""rasphy benchmark: one closed-loop client running replicates back to back.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program under test is ``src/rasphy`` of the tree
this file sits in, and the run exits non-zero without a result when it
is missing.  Set-up (import, input generation repeated
``SETUP_REPEATS`` times, and one untimed warm-up replicate) is timed
apart from the replicates.  Replicates then run one after another until
their summed wall time reaches ``--seconds``.  Every replicate is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced replicates and reports the per-layer metrics of the
traced ones (see ``spans.py``), with the difference of the two medians as
``trace.overhead_s``.  Run records and spans go to ``.perfbench_out/``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "replicate_s_p50": "s",
    "sites_per_s": "sites/s",
    "correct_fraction": "ratio",
    "ok_fraction": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith("us_per_site"):
        return "us/site"
    if name.endswith("s_per_merge"):
        return "s/merge"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "fraction")):
        return "ratio"
    return "count"


def import_program():
    """Put this tree's ``src`` first on the path and import rasphy from it."""
    if not (SRC / "rasphy" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rasphy package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rasphy
    if Path(rasphy.__file__).resolve().parent != (SRC / "rasphy").resolve():
        sys.exit(f"perfbench: imported rasphy from {rasphy.__file__}, "
                 f"not from {SRC}")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def cpu_steal_s():
    """Seconds of CPU time the host took from this machine so far (all
    CPUs), from the ``steal`` column of /proc/stat; None where unknown."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_header(workload, seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg_start": loadavg(),
        "cpu_steal_s_start": cpu_steal_s(),
    }


def attempt(wl, inp, reference, tracer=None, rep=None):
    """Run one replicate, timed, and judge it untimed."""
    from workloads import Verdict

    scope = tracer.replicate(rep) if tracer else contextlib.nullcontext()
    root = tracer.span("replicate") if tracer else contextlib.nullcontext()
    error = None
    with scope:
        t0 = time.perf_counter()
        try:
            with root:
                out = wl.replicate(inp)
        except Exception as exc:  # noqa: BLE001 - a failed replicate is data
            error = exc
        elapsed = time.perf_counter() - t0
    if error is None:
        try:
            return elapsed, wl.evaluate(inp, out, reference)
        except Exception as exc:  # noqa: BLE001
            error = exc
    return elapsed, Verdict(failed=True, correct=False, parts={},
                            reason=f"raised {error!r}")


def measure(wl, seed, seconds, trace, workdir, pinned=None, import_s=0.0):
    """Set up, warm up, and run replicates for ``seconds``; returns the
    run's result record (metrics, verdicts and, when traced, the tracer).
    ``import_s`` is the import time already spent, a part of set-up."""
    from spans import Tracer, per_layer_metrics

    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = wl.prepare(seed, workdir)
        prep.append(time.perf_counter() - t0)
    warm_s, warm = attempt(wl, inp, pinned)
    reference = pinned if pinned is not None else \
        (warm.parts if warm.parts else None)

    tracer = Tracer() if trace else None
    times = {False: [], True: []}
    all_times, verdicts = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        while True:
            traced = bool(trace) and len(verdicts) % 2 == 1
            elapsed, verdict = attempt(wl, inp, reference,
                                       tracer if traced else None,
                                       len(verdicts))
            times[traced].append(elapsed)
            all_times.append(elapsed)
            verdicts.append(verdict)
            if sum(all_times) >= seconds and (not trace or times[True]):
                break

    n = len(verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = sum(v.correct for v in verdicts)
    record = {
        "prepare_s": prep,
        "warmup_s": warm_s,
        "warmup": vars(warm),
        "replicate_s": all_times,
        "attempted": n,
        "failed": failed,
        "correct_count": correct,
        "verdicts": [{"failed": v.failed, "correct": v.correct,
                      "reason": v.reason} for v in verdicts],
        "digest": warm.digest,
        "parts": warm.parts,
        "pinned": pinned is not None,
        "warnings": [],
    }
    record["end_to_end"] = {
        "setup_s": import_s + statistics.median(prep) + warm_s,
        "replicate_s_p50": statistics.median(all_times),
        "sites_per_s": wl.k * len(all_times) / sum(all_times),
        "correct_fraction": correct / n,
        "ok_fraction": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        layers = per_layer_metrics(tracer, times[False], times[True])
        span_s = layers["pipeline.run_pipeline.s"]
        if abs(layers["pipeline.unstaged_s"]) > 0.05 * span_s + 0.05:
            record["warnings"].append(
                "pipeline.run_pipeline.s disagrees with the stage records "
                f"plus pipeline.oracle_s by {layers['pipeline.unstaged_s']:.3f} s")
        record["per_layer"] = layers
        record["tracer"] = tracer
    return record


def result_line(record, trace):
    if trace:
        metrics = {name: {"value": v, "unit": per_layer_unit(name)}
                   for name, v in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    n = record["attempted"]
    ok = (record["failed"] == 0 and record["correct_count"] == n
          and not record["warnings"])
    return {"correct": ok, "attempted": n, "failed": record["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T0

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    seed = wl.default_seed if args.seed is None else args.seed
    header = run_header(wl.name, seed)
    for key, value in header.items():
        print(f"# {key}: {value}")

    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pin = pins.get(wl.name, {})
    pinned = pin.get("parts") if pin.get("seed") == seed else None

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        record = measure(wl, seed, args.seconds, args.trace, workdir, pinned,
                         import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["import_s"] = import_s
    header["loadavg_end"] = loadavg()
    steal = cpu_steal_s()
    header["cpu_steal_s"] = None if steal is None else \
        steal - header["cpu_steal_s_start"]
    for key in ("loadavg_end", "cpu_steal_s"):
        print(f"# {key}: {header[key]}")

    for i, (t, v) in enumerate(zip(record["replicate_s"], record["verdicts"])):
        status = "FAILED" if v["failed"] else ("ok" if v["correct"] else
                                                "INCORRECT")
        print(f"replicate {i}: {t:.4f} s {status} {v['reason']}".rstrip())
    pin_state = "not pinned at this seed" if pinned is None else \
        ("matches the pin" if record["parts"] == pinned else "DIFFERS from the pin")
    print(f"digest {record['digest']} ({pin_state})")
    for warning in record["warnings"]:
        print(f"warning: {warning}")
    result = result_line(record, args.trace)
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")

    tag = f"{wl.name}-seed{seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{tag}.jsonl")
    (OUT / f"run-{tag}.json").write_text(json.dumps(
        {"header": header, "result": result, "record": record}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
