"""One benchmark phase in a fresh interpreter: ``python child.py SPEC.json``.

The spec names the phase (``eval``, ``tune``, ``plan`` or ``live``) and
its inputs.  The child times its own set-up (``import repro`` plus the
phase's contexts, up to the first timed call), the timed call and a
fixed reference workload before and after them, runs the phase's
correctness checks outside the timed region, and writes a JSON result
to ``spec["result"]``.  With ``spec["traced"]`` it installs the call
ledger after the imports and adds the ledger to the result.
"""

import time


def reference_s() -> float:
    """Seconds a fixed allocation-heavy pure-Python workload takes now.

    Host speed on shared machines drifts by a third between regimes
    lasting seconds to minutes, mostly in memory-bound work; timing
    this workload around the phase lets the benchmark express phase
    times at a fixed reference speed.
    """
    start = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[(i % 5000, i % 7)] = [i, str(i)]
    sorted(table.items())
    return time.perf_counter() - start


# the first reference runs while the interpreter is still small, so its
# table never sets the phase's peak RSS
REFERENCE_BEFORE = reference_s()
T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, indent=1, sort_keys=True).encode()


class Phase:
    """Timing, checks and outputs of one child run."""

    def __init__(self, spec):
        self.spec = spec
        self.ledger = None
        self.out = {"checks": {}, "digests": {}}

    def imported(self) -> None:
        """Mark the end of the imports; install the ledger if traced.

        Phases call wrapped functions through module attributes looked
        up after this point, so their own references are traced too.
        """
        self.out["import_s"] = time.perf_counter() - T0
        if self.spec["traced"]:
            from ledger import install

            self.ledger = install()

    def timed(self, call):
        """Run the phase's timed call; everything before it is set-up.

        Peak RSS and the ledger are read right after the call, so the
        second reference run and the correctness checks that follow stay
        out of both.
        """
        start = time.perf_counter()
        self.out["setup_s"] = start - T0
        result = call()
        self.out["run_s"] = time.perf_counter() - start
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        self.out["peak_rss_mb"] = usage / 1024.0
        if self.ledger is not None:
            self.out["ledger"] = self.ledger.dump()
        self.out["reference_s"] = (REFERENCE_BEFORE + reference_s()) / 2
        return result

    def check(self, name: str, ok: bool) -> None:
        self.out["checks"][name] = bool(ok)

    def finish(self) -> None:
        with open(self.spec["result"], "w") as f:
            json.dump(self.out, f, sort_keys=True)


def run_eval(phase: Phase) -> None:
    """``python -m repro.eval OUT --isa neon [--threads N]``."""
    from repro.eval.__main__ import main

    phase.imported()
    spec = phase.spec
    outdir = Path(spec["outdir"])
    argv = [str(outdir), "--isa", "neon", "--threads", str(spec["threads"])]
    rc = phase.timed(lambda: main(argv + ["-q"]))
    phase.check("eval exit code", rc == 0)
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "SUMMARY.txt":
            # the last line reports the host time of the run
            data = b"\n".join(
                line for line in data.split(b"\n")
                if not line.startswith(b"regenerated in")
            )
        phase.out["digests"][path.name] = sha(data)


def winner_matches_numpy(isa: str, mr: int, nr: int, seed: int) -> bool:
    """Interpret the kernel a tuned winner names against ``C += A @ B``."""
    import numpy as np

    from repro.isa.targets import target
    from repro.ukernel.generator import generate_vla_microkernel
    from repro.ukernel.registry import registry_for_machine

    t = target(isa)
    if t.vla and t.lib_factory is not None and mr % t.lib["lanes"]:
        kernel = generate_vla_microkernel(mr, nr, t.lib_factory)
        run = kernel.interpret
    else:
        kernel = registry_for_machine(t.machine).get(mr, nr)
        run = kernel.proc.interpret
    kc = 8
    rng = np.random.default_rng([seed, mr, nr])
    a = rng.random((mr, kc)).astype(np.float32)
    b = rng.random((kc, nr)).astype(np.float32)
    c = rng.random((mr, nr)).astype(np.float32)
    expected = c.astype(np.float64) + a.astype(np.float64) @ b
    # kernels take A packed k-major, B k-major and C column-major
    got = np.ascontiguousarray(c.T)
    run(kc, np.ascontiguousarray(a.T), b.copy(), got)
    return bool(np.allclose(got.T, expected, rtol=1e-5, atol=1e-5))


def run_tune(phase: Phase) -> None:
    """``python -m repro.tune`` into (cold) or against (warm) a cache."""
    from repro.tune.__main__ import main

    phase.imported()
    spec = phase.spec
    out = Path(spec["artifact"])
    argv = [
        "--machines", spec["machines"],
        "--shapes", spec["shapes"],
        "--threads", spec["threads"],
        "--workers", str(spec["workers"]),
        "--cache-dir", spec["cache"],
        "--out", str(out),
        "-q",
    ]
    metrics = out.with_suffix(".metrics.json")
    if spec["traced"]:
        argv += ["--metrics", str(metrics)]
    rc = phase.timed(lambda: main(argv))
    phase.check("tune exit code", rc == 0)
    artifact = json.loads(out.read_text())
    # the sweep's own cache counters differ between cold and warm by
    # design; every modelled field is compared
    counters = {k: v for k, v in artifact.items() if k.startswith("cache_")}
    modelled = {k: v for k, v in artifact.items() if k not in counters}
    phase.out["cache"] = counters
    phase.out["digests"]["artifact"] = sha(canonical(modelled))
    if spec["mode"] == "warm":
        phase.check("warm sweep misses no entry", counters["cache_misses"] == 0)
    if spec["check_winners"]:
        winners = sorted(
            {
                (isa, *entry["kernel"])
                for isa, info in modelled["machines"].items()
                for entry in info["best"].values()
            }
        )
        for isa, mr, nr in winners:
            phase.check(
                f"winner {isa} {mr}x{nr} matches numpy",
                winner_matches_numpy(isa, mr, nr, spec["seed"]),
            )
    if spec["traced"]:
        # work inside pool workers is invisible to the parent's ledger;
        # the sweep's own obs bundle measures how busy they were
        gauge = json.loads(metrics.read_text()).get(
            "tune.worker_utilization"
        )
        if gauge is not None:
            phase.out["pool_utilization"] = gauge["value"]


def run_plan(phase: Phase) -> None:
    """``search_configurations`` over every placement x batch cap."""
    import repro.serve as serve
    from repro.isa.machine import machine_by_name

    phase.imported()
    spec = phase.spec
    trace = serve.load_trace(spec["trace"])
    machine = machine_by_name(spec["machine"])
    best, outcomes = phase.timed(
        lambda: serve.search_configurations(
            trace,
            machine,
            spec["model"],
            slo_p99_ms=spec["slo_p99_ms"],
            batch_candidates=spec["batch_candidates"],
            max_wait_ms=spec["max_wait_ms"],
        )
    )
    phase.out["winner"] = {
        "replicas": best.placement.replicas,
        "threads": best.placement.threads_per_replica,
        "max_batch": best.policy.max_batch,
        "max_wait_ms": best.policy.max_wait_ms,
    }
    phase.out["batch_sizes"] = best.metrics["batch_sizes"]
    phase.out["digests"]["plan"] = sha(
        canonical(
            {
                "best": best.label,
                "outcomes": [[o.label, o.metrics] for o in outcomes],
            }
        )
    )


def run_live(phase: Phase) -> None:
    """``ServePlane`` + ``run_trace`` on a virtual timeline, sim controller."""
    import repro.serve as serve
    from repro.isa.machine import machine_by_name

    phase.imported()
    spec = phase.spec
    winner = spec["winner"]
    trace = serve.load_trace(spec["trace"])
    arrivals = serve.assign_models(trace, {spec["model"]: 1.0})
    machine = machine_by_name(spec["machine"])
    pools = [
        serve.PoolSpec(
            model=spec["model"],
            replicas=winner["replicas"],
            threads=winner["threads"],
            max_batch=winner["max_batch"],
            max_wait_ms=winner["max_wait_ms"],
        )
    ]
    admission = serve.AdmissionPolicy(deadline_ms=spec["slo_p99_ms"])
    timeline = serve.VirtualTimeline()

    def replay():
        plane = serve.ServePlane(
            machine, pools, timeline, controller="sim", admission=admission
        )
        return plane, serve.run_trace(plane, arrivals)

    plane, result = phase.timed(replay)
    phase.out["arrived"] = result.arrived
    phase.out["shed"] = len(result.shed)
    phase.check("every trace request arrived", result.arrived == len(trace))
    phase.check(
        "arrived == served + shed",
        result.arrived == len(result.served) + len(result.shed),
    )
    report = serve.live_report(
        plane,
        result,
        machine_name=spec["machine"],
        isa=machine.isa,
        trace_info={"requests": len(trace)},
        slo_p99_ms=spec["slo_p99_ms"],
    )
    phase.out["digests"]["live"] = sha(canonical(report["totals"]))


PHASES = {"eval": run_eval, "tune": run_tune, "plan": run_plan, "live": run_live}


def main() -> None:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    phase = Phase(spec)
    PHASES[spec["phase"]](phase)
    phase.finish()


if __name__ == "__main__":
    main()
