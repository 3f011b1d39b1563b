#!/usr/bin/env python3
"""Host-time benchmark of the repro command-line surfaces.

    python3 perfbench/run.py --workload paper-eval --seed 0 --seconds 20 --trace 0

Runs the workload's phases in fresh interpreters, round after round,
until ``--seconds`` have passed, checks every modelled output, and
prints each metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` - the end-to-end metrics with ``--trace 0``, the per-layer
call ledger with ``--trace 1``.  ``--pin`` re-records the expected
digests of the modelled outputs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 0
WORKLOADS = ("paper-eval", "tune-sweep", "serve-replay")
CHILD_TIMEOUT_S = 150
#: stop starting rounds once a run could overrun this many seconds
RUN_LIMIT_S = 150

SQUARES = ((256, 256, 256), (512, 512, 512), (1024, 1024, 1024),
           (2048, 2048, 2048))
#: the distinct im2row GEMMs of ResNet50 v1.5 and VGG16 (Tables I/II)
DNN_SHAPES = (
    (12544, 64, 147), (3136, 64, 64), (3136, 64, 576), (3136, 256, 64),
    (3136, 64, 256), (3136, 128, 256), (784, 128, 1152), (784, 512, 128),
    (784, 512, 256), (784, 128, 512), (784, 256, 512), (196, 256, 2304),
    (196, 1024, 256), (196, 1024, 512), (196, 256, 1024), (196, 512, 1024),
    (49, 512, 4608), (49, 2048, 512), (49, 2048, 1024), (49, 512, 2048),
    (50176, 64, 27), (50176, 64, 576), (12544, 128, 576),
    (12544, 128, 1152), (3136, 256, 1152), (3136, 256, 2304),
    (784, 256, 2304), (784, 512, 4608), (196, 512, 4608),
)
DNN_DRAW = 6
TUNE_TARGETS = "neon,avx512,rvv128,rvv256,numa2s"

#: the serving scenario: ResNet50 on Carmel under a 1 s p99 SLO; the
#: MMPP burst rate is above what any placement serves, the quiet rate
#: well below it
SERVE = {
    "machine": "carmel",
    "model": "resnet50",
    "slo_p99_ms": 1000.0,
    "batch_candidates": [1, 2, 4, 8],
    "max_wait_ms": 2.0,
}
MMPP_RATES_RPS = (2.0, 30.0)
MMPP_DWELL_MS = 1500.0
#: a fixed request count keeps the work of a replay the same across
#: seeds; only the arrival pattern is drawn
SERVE_REQUESTS = 3000
#: the fixed trace of the small serving phase other workloads run
COMPANION_TRACE = {"seed": 1, "requests": 500}

#: phase times are reported at this speed of ``child.reference_s``: its
#: median duration on the machine the benchmark was defined on (a
#: 2-vCPU Linux container) in that machine's common speed regime
REFERENCE_S = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("eval_s", "s"),
    ("tune_cold_s", "s"),
    ("tune_warm_s", "s"),
    ("plan_s", "s"),
    ("live_replay_rps", "req/s"),
    ("peak_rss_mb", "MB"),
)
#: round stage -> the phase configuration it runs
STAGE_CONFIG = {"eval": "eval", "tune_cold": "tune", "tune_warm": "tune",
                "plan": "serve", "live": "serve"}
STAGE_METRIC = {
    "eval": "eval_s",
    "tune_cold": "tune_cold_s",
    "tune_warm": "tune_warm_s",
    "plan": "plan_s",
}

#: wrapped entry point -> workloads whose rounds must call it
COVERAGE = {
    "ukernel.generate:generate_microkernel": WORKLOADS,
    "ukernel.generate:generate_vla_microkernel": ("tune-sweep",),
    "analysis.verify:verify_tile": ("tune-sweep",),
    "analysis.verify:verify_kernel": ("tune-sweep",),
    "sim.pipeline:PipelineModel.steady_cycles_per_iter": (
        "paper-eval", "serve-replay"),
    "sim.timing:TimingModel.timing_for": WORKLOADS,
    "sim.gemm:gemm_time_model": ("paper-eval", "tune-sweep"),
    "sim.parallel:parallel_gemm_breakdown": WORKLOADS,
    "sim.vectorized:batch_gemm_cycles": ("tune-sweep", "serve-replay"),
    **{
        f"eval.figure:{name}": ("paper-eval",)
        for name in (
            "fig13_solo_data", "fig14_square_data",
            "fig15_resnet_layer_data", "fig16_resnet_time_data",
            "fig17_vgg_layer_data", "fig18_vgg_time_data",
            "thread_scaling_data", "threaded_instance_time_data",
        )
    },
    "tune.pool:run_jobs": ("tune-sweep",),
    "tune.cache.get:TuneCache.get": ("tune-sweep",),
    "tune.cache.put:TuneCache.put": ("tune-sweep",),
    "serve.plan:search_configurations": ("serve-replay",),
    "serve.executor.prewarm:prewarm_executors": ("serve-replay",),
    "serve.executor.batch:ModelExecutor.batch_time_ms": ("serve-replay",),
    "serve.executor.layer:ModelExecutor.layer_time": ("serve-replay",),
    "serve.batcher:simulate_serving": ("serve-replay",),
    "serve.plane:ServePlane.__init__": ("serve-replay",),
    "serve.plane:run_trace": ("serve-replay",),
    "io:Path.write_text": ("paper-eval", "tune-sweep"),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- inputs ------------------------------------------------------------


def dnn_draw(seed: int):
    """The seeded draw of DNN layer shapes the tune sweep adds."""
    rng = random.Random(f"dnn:{seed}")
    picks = sorted(rng.sample(range(len(DNN_SHAPES)), DNN_DRAW))
    return [DNN_SHAPES[i] for i in picks]


def mmpp_arrivals(seed: int, requests: int):
    """The first ``requests`` arrival times (ms) of a two-state MMPP."""
    rng = random.Random(f"mmpp:{seed}")
    times = []
    state = 0
    t = 0.0
    switch_at = rng.expovariate(1.0 / MMPP_DWELL_MS)
    while len(times) < requests:
        gap = rng.expovariate(MMPP_RATES_RPS[state] / 1000.0)
        if t + gap > switch_at:
            t = switch_at
            switch_at = t + rng.expovariate(1.0 / MMPP_DWELL_MS)
            state = 1 - state
            continue
        t += gap
        times.append(t)
    return times


def write_trace(path: Path, arrivals) -> str:
    lines = ["request_id,arrival_ms"]
    lines += [f"{i},{t!r}" for i, t in enumerate(arrivals)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def pool_workers() -> int:
    return min(8, len(os.sched_getaffinity(0)))


def shape_spec(shapes) -> str:
    return ",".join(f"{m}x{n}x{k}" for m, n, k in shapes)


def stage_configs(workload: str, seed: int, work: Path) -> dict:
    """Inputs of each phase kind for one workload.

    Every workload reports every end-to-end metric, so each round runs
    all four phase kinds: the workload's own phases at full size with
    its seeded inputs, the others as a small, fixed companion run.
    """
    if workload == "paper-eval":
        evaluation = {"label": "eval-t8", "threads": 8, "seeded": False}
    else:
        evaluation = {"label": "eval-t1", "threads": 1, "seeded": False}
    if workload == "tune-sweep":
        tune = {
            "label": "tune-all",
            "machines": TUNE_TARGETS,
            "shapes": shape_spec([*SQUARES, *dnn_draw(seed)]),
            "threads": "1,2,4",
            "workers": pool_workers(),
            "seeded": True,
        }
    else:
        tune = {
            "label": "tune-neon",
            "machines": "neon",
            "shapes": shape_spec(SQUARES),
            "threads": "1",
            "workers": 1,
            "seeded": False,
        }
    if workload == "serve-replay":
        arrivals = mmpp_arrivals(seed, SERVE_REQUESTS)
        serve = {"label": "serve-mmpp", "seeded": True}
    else:
        arrivals = mmpp_arrivals(
            COMPANION_TRACE["seed"], COMPANION_TRACE["requests"]
        )
        serve = {"label": "serve-short", "seeded": False}
    serve.update(SERVE, trace=write_trace(work / "trace.csv", arrivals))
    return {"eval": evaluation, "tune": tune, "serve": serve}


# -- children ----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(spec: dict, rdir: Path, name: str):
    """Run one phase in a fresh interpreter; its result, or None."""
    spec = dict(spec, result=str(rdir / f"{name}.result.json"))
    spec_path = rdir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        cwd=rdir,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        log(f"{name}: timed out after {CHILD_TIMEOUT_S}s")
        return None
    if proc.returncode != 0:
        log(f"{name}: exit code {proc.returncode}\n{err[-3000:]}")
        return None
    return json.loads(Path(spec["result"]).read_text())


class Checks:
    """Correctness checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            log(f"check failed: {name}")


def run_round(configs, seed, rdir: Path, traced: bool, checks, expected,
              first: bool):
    """One fresh interpreter per phase; returns {stage: result}.

    The winner kernels are interpreted in the ``first`` round only: every
    round tunes the same inputs, and the digests show the winners equal.
    """
    rdir.mkdir(parents=True)
    ev, tune, serve = configs["eval"], configs["tune"], configs["serve"]
    common = {"traced": traced, "seed": seed}
    specs = {
        "eval": dict(common, phase="eval", outdir=str(rdir / "eval"),
                     threads=ev["threads"]),
    }
    for mode in ("cold", "warm"):
        specs[f"tune_{mode}"] = dict(
            common, phase="tune", mode=mode, cache=str(rdir / "tunecache"),
            artifact=str(rdir / f"tune-{mode}.json"),
            check_winners=first and mode == "warm",
            **{k: tune[k] for k in ("machines", "shapes", "threads",
                                    "workers")},
        )
    serve_inputs = {k: v for k, v in serve.items()
                    if k not in ("label", "seeded")}
    specs["plan"] = dict(common, phase="plan", **serve_inputs)

    results = {}
    for stage, spec in specs.items():
        results[stage] = run_child(spec, rdir, stage)
    if results["plan"] is not None:
        specs["live"] = dict(common, phase="live", **serve_inputs,
                             winner=results["plan"]["winner"])
        results["live"] = run_child(specs["live"], rdir, "live")
    else:
        results["live"] = None

    for stage, result in results.items():
        checks.check(f"{stage} ran to completion", result is not None)
        if result is not None:
            for name, ok in result["checks"].items():
                checks.check(f"{stage}: {name}", ok)
    if expected is not None:
        for key, digest in pinned_digests(configs, results, seed).items():
            checks.check(f"{key} digest", expected.get(key) == digest)
    cold, warm = results["tune_cold"], results["tune_warm"]
    if cold is not None and warm is not None:
        checks.check(
            "cold and warm tune artifacts identical",
            cold["digests"]["artifact"] == warm["digests"]["artifact"],
        )
    shutil.rmtree(rdir)
    return results


def pinned_digests(configs, results, seed) -> dict:
    """The round's output digests that ``expected.json`` pins at ``seed``.

    Keys are ``<phase label>/<output>``; seeded phases are pinned at the
    default seed only.
    """
    digests = {}
    for stage, result in results.items():
        config = configs[STAGE_CONFIG[stage]]
        if result is None or (config["seeded"] and seed != DEFAULT_SEED):
            continue
        for name, digest in result["digests"].items():
            digests[f"{config['label']}/{name}"] = digest
    return digests


# -- metrics -----------------------------------------------------------


def end_to_end(rounds) -> dict:
    """Medians over rounds; set-up is the sum of each phase's median.

    Each interpreter's times are scaled by ``REFERENCE_S`` over the
    reference workload's duration measured around its timed call, which
    cancels the host's drift between speed regimes.
    """
    samples = {name: [] for name, _ in END_TO_END}
    setups = {}
    for results in rounds:
        for stage, result in results.items():
            if result is None:
                continue
            scale = REFERENCE_S / result["reference_s"]
            setups.setdefault(stage, []).append(result["setup_s"] * scale)
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
            run_s = result["run_s"] * scale
            if stage in STAGE_METRIC:
                samples[STAGE_METRIC[stage]].append(run_s)
            elif stage == "live":
                samples["live_replay_rps"].append(result["arrived"] / run_s)
    values = {}
    for name, unit in END_TO_END:
        if name == "setup_s":
            value = sum(statistics.median(s) for s in setups.values())
        elif name == "peak_rss_mb":
            value = max(samples[name])
        else:
            value = statistics.median(samples[name])
        values[name] = value
    return values


def ledger_totals(results: dict):
    """Sum the round's ledgers: span (calls, self s), counters, distinct."""
    spans, counters, distinct = {}, {}, {}
    import_s = 0.0
    utilization = 0.0
    for result in results.values():
        if result is None:
            continue
        import_s += result["import_s"]
        utilization = max(utilization, result.get("pool_utilization", 0.0))
        book = result.get("ledger", {"spans": [], "counters": {},
                                     "distinct": {}})
        for span in book["spans"]:
            calls, self_s = spans.get(span["name"], (0, 0.0))
            spans[span["name"]] = (calls + span["calls"],
                                   self_s + span["self_s"])
        for name, value in book["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in book["distinct"].items():
            distinct[name] = distinct.get(name, 0) + value
    return spans, counters, distinct, import_s, utilization


def layer_metrics(results: dict) -> dict:
    """Per-layer calls, self seconds and ratios of one traced round."""
    spans, counters, distinct, import_s, utilization = ledger_totals(results)

    def calls(layer):
        spanned = sum(c for n, (c, _) in spans.items()
                      if n.split(":")[0] == layer)
        counted = sum(v for n, v in counters.items()
                      if ":" in n and n.split(":")[0] == layer)
        return spanned + counted

    def self_s(*layers):
        return sum(s for n, (_, s) in spans.items()
                   if n.split(":")[0] in layers)

    return {
        "import.s": import_s,
        "ukernel.generate.calls": calls("ukernel.generate"),
        "ukernel.generate.s": self_s("ukernel.generate"),
        "analysis.verify.calls": calls("analysis.verify"),
        "analysis.verify.s": self_s("analysis.verify"),
        "analysis.verify.rejected": counters.get(
            "analysis.verify.rejected", 0),
        "sim.pipeline.calls": calls("sim.pipeline"),
        "sim.pipeline.distinct": distinct.get("sim.pipeline.distinct", 0),
        "sim.pipeline.s": self_s("sim.pipeline"),
        "sim.timing.calls": calls("sim.timing"),
        "sim.gemm.calls": calls("sim.gemm"),
        "sim.gemm.s": self_s("sim.gemm"),
        "sim.parallel.calls": calls("sim.parallel"),
        "sim.parallel.s": self_s("sim.parallel"),
        "sim.vectorized.calls": calls("sim.vectorized"),
        "sim.vectorized.candidates": counters.get(
            "sim.vectorized.candidates", 0),
        "sim.vectorized.s": self_s("sim.vectorized"),
        "eval.figure.calls": calls("eval.figure"),
        "eval.figure.s": self_s("eval.figure"),
        "tune.pool.s": self_s("tune.pool"),
        "tune.pool.jobs": counters.get("tune.pool.jobs", 0),
        "tune.pool.utilization": utilization,
        "tune.cache.gets": calls("tune.cache.get"),
        "tune.cache.hits": counters.get("tune.cache.hits", 0),
        "tune.cache.puts": calls("tune.cache.put"),
        "tune.cache.s": self_s("tune.cache.get", "tune.cache.put"),
        "serve.plan.s": self_s("serve.plan"),
        "serve.plan.configs": counters.get("serve.plan.configs", 0),
        "serve.executor.prewarm_s": self_s("serve.executor.prewarm"),
        "serve.executor.batch_calls": calls("serve.executor.batch"),
        "serve.executor.layer_calls": calls("serve.executor.layer"),
        "serve.batcher.calls": calls("serve.batcher"),
        "serve.batcher.requests": counters.get("serve.batcher.requests", 0),
        "serve.batcher.s": self_s("serve.batcher"),
        "serve.plane.s": self_s("serve.plane"),
        "serve.plane.requests": counters.get("serve.plane.requests", 0),
        "serve.plane.shed": counters.get("serve.plane.shed", 0),
        "io.s": self_s("io"),
        "io.bytes": counters.get("io.bytes", 0),
    }


#: name suffixes of the per-layer work counts, which must repeat exactly
#: across traced rounds (``io.bytes`` is not one: SUMMARY.txt reports
#: the run's host time)
WORK_COUNTS = (
    "calls", "distinct", "rejected", "candidates", "jobs", "gets", "hits",
    "puts", "configs", "batch_calls", "layer_calls", "requests", "shed",
)


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".utilization"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def traced_metrics(workload, untraced, traced, checks) -> dict:
    """Per-layer metrics, with the coverage and exactness self-checks."""
    per_round = [layer_metrics(results) for results in traced]
    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if name.rsplit(".", 1)[1] in WORK_COUNTS:
            checks.check(f"{name} repeats exactly",
                         len(set(values)) == 1)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    for results in traced:
        spans, counters, _, _, _ = ledger_totals(results)
        for name, workloads in COVERAGE.items():
            if workload in workloads:
                called = spans.get(name, (0, 0.0))[0] + counters.get(name, 0)
                checks.check(f"wrapper {name} called", called > 0)
    plain, with_ledger = end_to_end(untraced), end_to_end(traced)
    for name, _ in END_TO_END:
        metrics[f"overhead.{name}"] = with_ledger[name] - plain[name]
    return metrics


# -- command line ------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host-time benchmark of the repro CLI surfaces.",
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="record the expected digests of every workload's modelled "
        "outputs at the default seed, then exit",
    )
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


def pin(work: Path) -> int:
    """One round of every workload at the default seed -> expected.json."""
    digests = {}
    for workload in WORKLOADS:
        wdir = work / workload
        wdir.mkdir()
        configs = stage_configs(workload, DEFAULT_SEED, wdir)
        checks = Checks()
        results = run_round(configs, DEFAULT_SEED, wdir / "r0", False,
                            checks, None, first=True)
        if checks.failures:
            log(f"{workload}: checks failed; nothing pinned")
            return 1
        for key, digest in pinned_digests(
            configs, results, DEFAULT_SEED
        ).items():
            if digests.setdefault(key, digest) != digest:
                log(f"{key}: digest differs between workloads")
                return 1
    EXPECTED.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": dict(sorted(digests.items()))},
        indent=1,
    ) + "\n")
    log(f"pinned {len(digests)} digests into {EXPECTED}")
    return 0


def measure(args, work: Path):
    """Run rounds for ``--seconds``: (result line, rounds, reference s)."""
    configs = stage_configs(args.workload, args.seed, work)
    expected = json.loads(EXPECTED.read_text())["digests"]
    checks = Checks()
    untraced, traced = [], []
    # --trace 1 alternates plain and traced rounds, so the ledger's
    # overhead is measured against plain rounds of the same run
    kinds = (False, True) if args.trace else (False,)
    minimum = 2 if args.trace else 3
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        for traced_round in kinds:
            began = time.perf_counter()
            results = run_round(configs, args.seed, work / f"r{index}",
                                traced_round, checks, expected,
                                first=index == 0)
            index += 1
            (traced if traced_round else untraced).append(results)
            longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        done = len(untraced) >= minimum and elapsed >= args.seconds
        if done or elapsed + longest * len(kinds) > RUN_LIMIT_S:
            break
    if args.trace:
        metrics = traced_metrics(args.workload, untraced, traced, checks)
        units = {name: layer_unit(name) for name in metrics}
        units.update({f"overhead.{n}": u for n, u in END_TO_END})
    else:
        metrics = end_to_end(untraced)
        units = dict(END_TO_END)
    references = [
        result["reference_s"]
        for results in untraced + traced
        for result in results.values()
        if result is not None
    ]
    report = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return report, len(untraced) + len(traced), statistics.median(references)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {ROOT / 'src'}; run from a checkout")
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.pin:
            return pin(work)
        report, rounds, reference = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{rounds} rounds; times at reference speed "
          f"({REFERENCE_S} s; measured median {reference:.4f} s)")
    for name, metric in report["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'fail_frac':32s} "
          f"{report['failed'] / report['attempted']:14.6g} ratio "
          f"({report['failed']} of {report['attempted']} checks failed)")
    print(f"correct: {str(report['correct']).lower()}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
