#!/usr/bin/env python3
"""wndkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gas2d-r8-evolve --seed 1 --seconds 30 --trace 0

Run from the root of a wndkit checkout; wndkit is imported from its `src/`.
The run sets up the workload's operators SETUPS times (setup_s is their
median).  After each set-up, measured rounds repeat until they have taken a
SETUPS-th of `--seconds`, so the rounds spread evenly over the whole run and
their timings average the host's speed over all of it; the last share runs
on until there are at least MIN_ROUNDS rounds and MIN_STEP_SAMPLES per-step
samples.  A phase time is the mean of the middle half of its rounds; step
percentiles are over every step of every round.  BLAS and OpenMP run one thread:
one caller, one core, so the other cores' load does not stall a BLAS call.

With `--trace 0` the result carries the end-to-end metrics.  With
`--trace 1` set-ups and every other round run with wndkit's layer functions
wrapped in spans (the rounds in between stay untraced, which gives the
tracing overhead), the spans are written to perfbench/_out/, and the result
carries the per-layer metrics.  The last line of standard output is the
result; the lines before it give every metric by name with its unit, the
checks and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

# one BLAS / OpenMP thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUPS = 3
MIN_ROUNDS = 2
MIN_STEP_SAMPLES = 100  # p90 then has at least ten samples beyond it
ONCE_PHASES = ("certify_s", "export_s")  # timed in the first round only

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spectral.spectrum_s": "s",
    "averaging.diffusion_s": "s",
    "solver.propagators_s": "s",
    "averaging.table_s": "s",
    "navier_stokes.rule_calls": "count",
    "navier_stokes.rule_s": "s",
    "averaging.table_candidates": "count",
    "averaging.triples": "count",
    "averaging.table_hit_ratio": "ratio",
    "averaging.zero_branch_share": "ratio",
    "averaging.compile_s": "s",
    "averaging.kernel_bytes": "B-computed",
    "averaging.qbar_calls": "count",
    "averaging.qbar_ms_p50": "ms",
    "averaging.qbar_share": "ratio",
    "averaging.qbar_bytes": "B-computed",
    "averaging.qbar_gbps": "GB/s-computed",
    "averaging.qbar_complex_share": "ratio",
    "solver.step_self_ms_p50": "ms",
    "solver.diagnostics_s": "s",
    "navier_stokes.split_s": "s",
    "navier_stokes.reference_s": "s",
    "averaging.cyclic_s": "s",
    "dissipativity.kawashima_s": "s",
    "dissipativity.search_s": "s",
    "dissipativity.verify_delta_s": "s",
    "dissipativity.directions": "count",
    "dissipativity.analyze_s": "s",
    "cli.export_s": "s",
    "cli.export_rows": "count",
    "cli.export_bytes": "B",
    "trace.solve_overhead_s": "s",
    "checks.run": "count",
    "checks.failed": "count",
    "checks.fail_ratio": "ratio",
}


def environment(args) -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS", "unset"),
        "git_commit": commit,
    }


def measure(workload, tr, seconds: float, traced_layers):
    """SETUPS set-ups, each followed by rounds for a SETUPS-th of `seconds`;
    the last share also runs until the round and sample minimums are met.
    In a traced run the even rounds are traced (the first round, which
    certifies and exports where the workload does, among them)."""
    setups, rounds, ops = [], [], None
    samples = 0
    for i in range(SETUPS):
        ops = None  # free the previous operators before building again
        gc.collect()
        with traced_layers(True):
            ops, span = workload.setup(tr)
        setups.append(span)
        measured = 0.0
        while True:
            traced = tr.enabled and len(rounds) % 2 == 0
            with traced_layers(traced), tr.span("round", traced=traced) as span:
                rnd = workload.round(tr, ops, first=not rounds)
            rounds.append((rnd, span, traced))
            # the one-off certificate and export do not count as round time
            measured += span.duration - sum(rnd.phases.get(k, 0.0) for k in ONCE_PHASES)
            samples += len(rnd.step_intervals)
            if measured < seconds / SETUPS:
                continue
            if i < SETUPS - 1 or (len(rounds) >= MIN_ROUNDS and samples >= MIN_STEP_SAMPLES):
                break
    return setups, rounds, ops


def middle_mean(values) -> float:
    """Mean of the middle half of the values (all of them when fewer than 4)."""
    values = np.sort(np.asarray(values, dtype=float))
    cut = len(values) // 4
    return float(values[cut:len(values) - cut].mean())


def end_to_end(setups, rounds) -> dict:
    steps = np.concatenate([r.step_intervals for r, _, _ in rounds]) * 1e3

    def phase(key):
        return middle_mean([r.phases[key] for r, _, _ in rounds])

    return {
        "setup_s": float(np.median([s.duration for s in setups])),
        "solve_s": phase("solve_s"),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "verify_s": phase("verify_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def table_counts(workload, ops) -> dict:
    """Exact counts of the resonance table and its compiled kernels."""
    lattice, spectrum, table = ops.lattice, ops.spectrum, ops.table
    nfreq = np.array([spectrum[m].nfreq for m in lattice])
    arr = lattice.array
    candidates = 0
    for ki in range(len(lattice)):
        ksum = arr + arr[ki]
        inside = np.abs(ksum).max(axis=1) <= lattice.radius
        mi = lattice.index_array(ksum[inside])
        candidates += int(nfreq[ki] * (nfreq[inside] * nfreq[mi]).sum())
    # zero branch as the exact acoustic rule classifies it: |omega| < c0 / 2
    thr = 0.5 * workload.model.sound
    zero = {(i, j) for i, m in enumerate(lattice) for j, w in enumerate(spectrum[m].frequencies) if abs(w) < thr}
    e = table.entries
    zero_triples = sum(
        (k, j1) in zero and (l, j2) in zero and (m, j3) in zero for k, j1, l, j2, m, j3 in e.tolist()
    )
    n = ops.spec.ncomp
    compiled = int((e[:, 4] > lattice.zero_index()).sum())  # kernels kept for the positive half
    return {
        "averaging.table_candidates": candidates,
        "averaging.triples": len(table),
        "averaging.table_hit_ratio": len(table) / candidates,
        "averaging.zero_branch_share": zero_triples / len(table),
        "averaging.kernel_bytes": compiled * n * n * n * 16,
    }


def per_layer(workload, tr, setups, rounds, ops) -> dict:
    traced = [(r, s) for r, s, t in rounds if t]
    untraced = [(r, s) for r, s, t in rounds if not t]
    self_time = tr.self_times()

    def med(values):
        return float(np.median(values)) if len(values) else 0.0

    def in_setup(name):
        return med([sum(s.duration for s in tr.within(sp, name)) for sp in setups])

    def per_round(name):
        """Median over the traced rounds that call the layer (some run once)."""
        return med([t for t in (sum(s.duration for s in tr.within(sp, name)) for _, sp in traced) if t > 0])

    counts = table_counts(workload, ops)
    qbar = [s for _, sp in traced for s in tr.within(sp, "averaging.qbar")]
    steps = [s for _, sp in traced for s in tr.within(sp, "solver.step")]
    step_ids = {s.id for s in steps}
    in_steps = sum(s.duration for s in qbar if s.parent in step_ids)
    streamed = sum(s.attrs["halves"] for s in qbar) * counts["averaging.kernel_bytes"]
    qbar_time = sum(s.duration for s in qbar)
    checks = [c for r, _, _ in rounds for c in r.checks]
    failed = sum(not ok for _, ok, _ in checks)
    first = traced[0][0]
    return {
        "spectral.spectrum_s": in_setup("spectral.spectrum"),
        "averaging.diffusion_s": in_setup("averaging.diffusion"),
        "solver.propagators_s": in_setup("solver.propagators"),
        "averaging.table_s": in_setup("averaging.table"),
        "navier_stokes.rule_calls": int(setups[0].attrs.get("rule_calls", 0)),
        "navier_stokes.rule_s": med([s.attrs.get("rule_s", 0.0) for s in setups]),
        **counts,
        "averaging.compile_s": in_setup("averaging.compile"),
        "averaging.qbar_calls": len(tr.within(traced[0][1], "averaging.qbar")),
        "averaging.qbar_ms_p50": med([s.duration * 1e3 for s in qbar]),
        "averaging.qbar_share": in_steps / sum(s.duration for s in steps) if steps else 0.0,
        "averaging.qbar_bytes": streamed / len(qbar) if qbar else 0.0,
        "averaging.qbar_gbps": streamed / qbar_time / 1e9 if qbar else 0.0,
        "averaging.qbar_complex_share": sum(s.attrs["complex"] for s in qbar) / len(qbar) if qbar else 0.0,
        "solver.step_self_ms_p50": med([self_time[s.id] * 1e3 for s in steps]),
        "solver.diagnostics_s": med([self_time[s.id] for _, sp in traced for s in tr.within(sp, "solver.simulate")]),
        "navier_stokes.split_s": per_round("navier_stokes.split"),
        "navier_stokes.reference_s": per_round("navier_stokes.reference"),
        "averaging.cyclic_s": per_round("averaging.cyclic"),
        "dissipativity.kawashima_s": per_round("dissipativity.kawashima"),
        "dissipativity.search_s": per_round("dissipativity.search"),
        "dissipativity.verify_delta_s": per_round("dissipativity.verify_delta"),
        "dissipativity.directions": first.directions,
        "dissipativity.analyze_s": per_round("dissipativity.analyze"),
        "cli.export_s": per_round("cli.export"),
        "cli.export_rows": first.export_rows,
        "cli.export_bytes": first.export_bytes,
        "trace.solve_overhead_s": med([r.phases["solve_s"] for r, _ in traced])
        - med([r.phases["solve_s"] for r, _ in untraced]),
        "checks.run": len(checks),
        "checks.failed": failed,
        "checks.fail_ratio": failed / len(checks),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wndkit" / "__init__.py").is_file():
        print(f"perfbench: no wndkit sources at {src}; run from the root of a wndkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    tr = Tracer(run_id, enabled=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / "export")

    def traced_layers(on: bool):
        return tr.patched(workloads.LAYER_TARGETS if tr.enabled and on else ())

    try:
        setups, rounds, ops = measure(workload, tr, args.seconds, traced_layers)
    except Exception:
        traceback.print_exc()
        return 1

    if args.trace:
        metrics = per_layer(workload, tr, setups, rounds, ops)
        units = PER_LAYER
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(path, {"env": env})
        print(f"# spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(setups, rounds)
        units = END_TO_END

    checks = [c for r, _, _ in rounds for c in r.checks]
    failed = [c for c in checks if not c[1]]
    samples = sum(len(r.step_intervals) for r, _, _ in rounds)
    print(f"# {len(setups)} set-ups, {len(rounds)} rounds, {samples} step samples")
    print("# set-ups: " + " ".join(f"{s.duration:.4g}" for s in setups) + " s")
    for i, (rnd, _, traced) in enumerate(rounds):
        times = " ".join(f"{k}={v:.4g}" for k, v in rnd.phases.items())
        print(f"# round {i}{' (traced)' if traced else ''}: {times}")
    worst: dict[str, tuple[bool, float]] = {}
    for name, ok, value in checks:
        seen = worst.get(name, (True, value))
        worst[name] = (seen[0] and ok, max(seen[1], value))
    for name, (ok, value) in worst.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}, largest value {value:.3e}")
    print(f"# checks: {len(checks)} run, {len(failed)} failed, check_fail_ratio {len(failed) / len(checks):.3g}")
    if not args.trace:
        for key in ONCE_PHASES:
            if key in rounds[0][0].phases:
                print(f"# not gated: {key} = {rounds[0][0].phases[key]:.6g} s (first round only)")
    for name, unit in units.items():
        value = metrics[name]
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
