"""Benchmark of the marketpanel CLI on three synthetic panels.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn. With ``--trace 0`` each
operation is a fresh ``python -m marketpanel.cli`` process and the
end-to-end metrics are reported; with ``--trace 1`` the same operations run
in-process under timing wrappers (see ``tracing.py``) and the per-layer
metrics are reported. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Details
(every sample, the synth seed used, the tracing overhead) go to
``perfbench/work/results/``; traced spans go to ``perfbench/work/traces/``.
See ``perfbench/README.md``.
"""

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

# set-up repeats; setup_s is their median. Two, not more: each repeat includes a
# warm-up operation, and three kept 70 runs of the three workloads too close to
# an hour on a slow 2-vCPU host
SETUPS_PER_RUN = 2
IMPORT_SAMPLES = 5          # fresh processes timing ``import marketpanel.cli``
SEED_FALLBACK_STEP = 1000   # next synth seed tried when a seed is infeasible
PROCESS_TIMEOUT_S = 150
# unset in the children so the BLAS pool behaves as it does for users
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    n_firms: int
    n_years: int
    verify: bool   # an operation is ``run`` then ``verify`` on the emitted tree


WORKLOADS = {w.name: w for w in (
    Workload("paper_cli_20x10", 20, 10, verify=False),
    Workload("wide_run_1000x10", 1000, 10, verify=False),
    Workload("long_verify_100x30", 100, 30, verify=True),
)}

END_TO_END_UNITS = {"wall_s": "s", "firm_years_per_s": "firm-years/s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}

# module (layer) -> functions whose self time / call count is reported
_LAYER_SELF = {
    "cli": (), "ingest": ("parse_fundamentals", "parse_prices"),
    "panel_core": ("build_dataset",),
    "beta": ("all_betas", "beta_for_year", "monthly_returns"),
    "variables": ("derive_all", "panel_columns", "firm_series"),
    "diagnostics": ("panel_stationarity", "adf_test", "hausman_test", "lr_heteroskedasticity"),
    "models": ("estimate",),
    "regress": ("within_transform", "fe_fit", "re_fit", "robust_cov_white_cross_section"),
    "report": ("emit", "write_manifest"),
}
_CALLS = ("beta.beta_for_year", "variables.panel_columns", "diagnostics.adf_test",
          "models.estimate", "regress.within_transform", "regress.fe_fit",
          "synth.truth_check")


def _per_layer_units():
    units = {"cli.import_s": "s"}
    for layer, functions in _LAYER_SELF.items():
        units[f"{layer}.self_s"] = "s"
        for fn in functions:
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update({f"{name}.calls": "count" for name in _CALLS})
    units["report.bytes"] = "bytes"
    units["synth.generate_panel.self_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a failed warm-up)."""


# --- running the CLI ------------------------------------------------------------------

@dataclass
class Measured:
    """One CLI invocation: exit code, standard output and its costs."""

    rc: int
    stdout: str
    wall_s: float
    cpu_s: float = 0.0
    rss_kib: int = 0


def _child_env() -> dict:
    """This environment without thread-count variables, ``src/`` first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SubprocessCli:
    """Runs each CLI call as a fresh ``python -m marketpanel.cli`` process."""

    def __init__(self, log_path: Path):
        self.env = _child_env()
        self.log_path = log_path
        self.stdout_path = log_path.with_suffix(".stdout")

    def __call__(self, argv) -> Measured:
        with open(self.stdout_path, "w+b") as out, open(self.log_path, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "marketpanel.cli", *argv],
                                    cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
        return Measured(proc.returncode, stdout, wall,
                        usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class InProcessCli:
    """Calls ``marketpanel.cli.main`` in this process (the traced run)."""

    def __init__(self, cli_module):
        self.cli = cli_module

    def __call__(self, argv) -> Measured:
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            rc = self.cli.main(list(argv))   # looked up per call: may be wrapped
        return Measured(rc, buffer.getvalue(), time.perf_counter() - start)


# --- one operation and its checks -----------------------------------------------------

@dataclass
class Operation:
    wall_s: float
    cpu_s: float
    rss_kib: int
    problems: list[str] = field(default_factory=list)
    tree: Path | None = None
    verify: dict | None = None


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _rel(path: Path) -> str:
    # relative to the repository root, as a user types them
    return os.path.relpath(path, ROOT)


def run_operation(cli, workload: Workload, data_dir: Path, out_dir: Path) -> Operation:
    """One timed operation: ``run`` (and ``verify`` on its tree)."""
    start = time.perf_counter()
    steps = [cli(["run", "--data", _rel(data_dir), "--out", _rel(out_dir)])]
    tree = None
    if steps[0].rc == 0:
        tree = ROOT / _last_json(steps[0].stdout)["out_dir"]
        if workload.verify:
            steps.append(cli(["verify", "--data", _rel(data_dir), "--run", _rel(tree)]))
    op = Operation(wall_s=time.perf_counter() - start,
                   cpu_s=sum(s.cpu_s for s in steps),
                   rss_kib=max(s.rss_kib for s in steps), tree=tree)
    if steps[0].rc != 0:
        op.problems.append(f"run exited {steps[0].rc}")
    elif workload.verify:
        op.verify = _last_json(steps[1].stdout) or {}
        op.problems += _verify_problems(steps[1].rc, op.verify)
    return op


def _verify_problems(rc: int, report: dict) -> list[str]:
    """Check (c): verify's recomputation agrees with the emitted tables.

    A truth-check rejection (an estimate more than three standard errors from
    its planted value) is statistical and happens on some seeds only; it is
    recorded with the results, not counted as a failure.
    """
    checks = report.get("truth_checks", {})
    rejected = [f"{m}/{c['variable']}: estimate" for m, cs in checks.items()
                for c in cs if not c["passed"]]
    failures = report.get("failures", [])
    problems = []
    if sorted(checks) != ["risk_moderated", "value_moderated"] or not all(checks.values()):
        problems.append(f"verify ran truth checks on {sorted(checks)}")
    recomputation = [f for f in failures if not any(f.startswith(r) for r in rejected)]
    if recomputation:
        problems.append(f"verify recomputation disagrees: {recomputation[:3]}")
    if rc != (1 if failures else 0) or report.get("passed") != (not failures):
        problems.append(f"verify exited {rc} with passed={report.get('passed')!r}")
    return problems


def tree_digest(tree: Path) -> tuple[str, int]:
    """(sha256 over every file's relative path and bytes, total bytes)."""
    digest, total = hashlib.sha256(), 0
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + data + b"\0")
        total += len(data)
    return digest.hexdigest(), total


def check_operation(op: Operation, expected: dict, reference: str) -> None:
    """Checks (a) and (b) on an operation's tree, outside its timed span."""
    if op.tree is None:
        return
    op.problems += oracle.check_tree(op.tree, expected)
    if tree_digest(op.tree)[0] != reference:
        op.problems.append("run tree differs from the first warm-up's tree")


# --- set-up ---------------------------------------------------------------------------

def write_inputs(result, data_dir: Path) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    files = {"fundamentals.csv": result.fundamentals_csv, "prices.csv": result.prices_csv,
             "riskfree.csv": result.riskfree_csv, "truth.json": result.truth.to_json()}
    for name, text in files.items():
        with open(data_dir / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


class Inputs:
    """Makes a workload's inputs from the seed through ``synth.generate_panel``.

    A seed for which the generator raises ``InfeasibleTargets`` is replaced
    by seed + 1000 (then + 2000, ...); the replacement is reported. Only the
    successful generation is inside the set-up time.
    """

    def __init__(self, synth, errors, workload: Workload, seed: int):
        self.synth, self.errors, self.workload = synth, errors, workload
        self.seed = seed
        self.infeasible: list[int] = []

    def generate(self, started: float) -> tuple[object, float]:
        while True:
            cfg = self.synth.DGPConfig(seed=self.seed, n_firms=self.workload.n_firms,
                                       n_years=self.workload.n_years)
            try:
                return self.synth.generate_panel(cfg), started
            except self.errors.InfeasibleTargets as exc:
                print(f"synth seed {self.seed} infeasible at {self.workload.n_firms}x"
                      f"{self.workload.n_years}: {exc}", file=sys.stderr)
                self.infeasible.append(self.seed)
                self.seed += SEED_FALLBACK_STEP
                started = time.perf_counter()


# --- metrics --------------------------------------------------------------------------

def end_to_end_metrics(workload: Workload, ops: list[Operation], setups: list[float]) -> dict:
    walls = [op.wall_s for op in ops]
    values = {
        "wall_s": statistics.median(walls),
        "firm_years_per_s": workload.n_firms * workload.n_years * len(ops) / sum(walls),
        "cpu_s": statistics.median(op.cpu_s for op in ops),
        "peak_rss_mb": statistics.median(op.rss_kib for op in ops) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(traced: list[dict], generate_self: list[float], import_s: float,
                      report_bytes: int, layers: dict) -> dict:
    """Per-operation medians of the traced counters, by metric name."""
    def per_op(fn):
        return statistics.median(fn(op) for op in traced)

    values = {"cli.import_s": import_s, "report.bytes": report_bytes,
              "synth.generate_panel.self_s": statistics.median(generate_self)}
    for layer, functions in _LAYER_SELF.items():
        names = [f"{layer}.{fn}" for fn in layers.get(layer, ())]
        values[f"{layer}.self_s"] = per_op(
            lambda op: sum(op["self_s"].get(n, 0.0) for n in names))
        for fn in functions:
            values[f"{layer}.{fn}.self_s"] = per_op(
                lambda op: op["self_s"].get(f"{layer}.{fn}", 0.0))
    for name in _CALLS:   # identical in every traced operation, else a check fails
        values[f"{name}.calls"] = traced[0]["calls"].get(name, 0)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def import_seconds(samples: int) -> list[float]:
    """Seconds to ``import marketpanel.cli`` in fresh processes."""
    code = ("import time; t = time.perf_counter(); import marketpanel.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                                 capture_output=True, text=True, check=True,
                                 timeout=PROCESS_TIMEOUT_S).stdout)
            for _ in range(samples)]


# --- a run ----------------------------------------------------------------------------

def run_workload(mp, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure for ``seconds``, check; returns the result record."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    data_dir, runs = work / "data", work / "runs"
    runs.mkdir(parents=True)
    inputs = Inputs(mp.synth, mp.errors, workload, seed)

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(mp)
        tracer.install()
        cli = InProcessCli(mp.cli)
    else:
        cli = SubprocessCli(work / "cli.log")

    # set-up: generate and write the inputs, then one untimed warm-up operation
    setups, generate_self, reference = [], [], None
    for k in range(SETUPS_PER_RUN):
        if tracer:
            tracer.reset()
        result, started = inputs.generate(time.perf_counter())
        write_inputs(result, data_dir)
        warm = run_operation(cli, workload, data_dir, runs / f"warmup{k}")
        setups.append(time.perf_counter() - started)
        if tracer:
            generate_self.append(tracer.self_s.get("synth.generate_panel", 0.0))
        if warm.problems or warm.tree is None:
            raise BenchError(f"warm-up operation failed: {warm.problems}")
        digest, report_bytes = tree_digest(warm.tree)
        if reference is None:
            reference = digest
        elif digest != reference:
            raise BenchError("warm-up run trees differ between set-ups")
    expected = oracle.expected_slopes(data_dir)

    ops, traced, untraced_walls, truth_rejections = [], [], [], set()
    if tracer:
        del tracer.spans[:]
    window_start = time.perf_counter()
    while not ops or time.perf_counter() - window_start < seconds:
        # a traced run's round is one traced and one untraced operation
        for traced_op in ((True, False) if tracer else (False,)):
            if tracer and not traced_op:
                tracer.uninstall()
            elif tracer:
                tracer.reset()
            op = run_operation(cli, workload, data_dir, runs / f"op{len(ops)}")
            if tracer and not traced_op:
                tracer.install()
                untraced_walls.append(op.wall_s)
            elif tracer:
                traced.append({"wall_s": op.wall_s, "calls": tracer.calls,
                               "self_s": tracer.self_s})
                if traced[-1]["calls"] != traced[0]["calls"]:
                    op.problems.append("call counts differ from the first traced operation")
            check_operation(op, expected, reference)
            if op.verify and not op.verify.get("passed"):
                truth_rejections.update(f for f in op.verify.get("failures", []))
            for problem in op.problems:
                print(f"{workload.name} op{len(ops)}: {problem}", file=sys.stderr)
            if op.tree is not None and ops:
                shutil.rmtree(op.tree.parent)
            ops.append(op)

    record = {"workload": workload.name, "seed": seed, "synth_seed": inputs.seed,
              "infeasible_seeds": inputs.infeasible, "seconds": seconds,
              "attempted": len(ops), "failed": sum(bool(op.problems) for op in ops),
              "setup_s": setups, "op_wall_s": [op.wall_s for op in ops],
              "op_cpu_s": [op.cpu_s for op in ops], "op_rss_kib": [op.rss_kib for op in ops],
              "verify_truth_rejections": sorted(truth_rejections)}
    if tracer:
        tracer.uninstall()
        imports = import_seconds(IMPORT_SAMPLES)
        layers = tracer.layer_functions()
        record["metrics"] = per_layer_metrics(traced, generate_self,
                                              statistics.median(imports), report_bytes, layers)
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    - statistics.median(untraced_walls))
        record.update(import_s=imports, traced_wall_s=[t["wall_s"] for t in traced],
                      untraced_wall_s=untraced_walls, tracing_overhead_s=overhead,
                      calls_per_op=traced[0]["calls"])
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{workload.name}-seed{seed}.json",
                     {"workload": workload.name, "seed": seed, "per_op": traced})
        print(f"{workload.name}: tracing overhead {overhead:.4f} s per operation "
              f"(traced minus untraced in-process)", file=sys.stderr)
    else:
        record["metrics"] = end_to_end_metrics(workload, ops, setups)
    if truth_rejections:
        print(f"{workload.name}: verify truth check rejected {sorted(truth_rejections)} "
              f"(seed {inputs.seed}; statistical, not counted as failed)", file=sys.stderr)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def load_program():
    """Import the ``marketpanel`` package from ``src/`` of this checkout."""
    if not (SRC / "marketpanel" / "cli.py").is_file():
        raise BenchError(f"no marketpanel sources under {SRC}")
    # compile up front: bytecode compilation of a fresh checkout stays out of set-up
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import marketpanel
    import marketpanel.cli
    import marketpanel.errors
    import marketpanel.synth
    if Path(marketpanel.__file__).resolve().parent != SRC / "marketpanel":
        raise BenchError(f"imported marketpanel from {marketpanel.__file__}, not {SRC}")
    # in-process CLI calls log and warn into a file, as the processes' stderr does
    WORK.mkdir(parents=True, exist_ok=True)
    logging.basicConfig(filename=WORK / "in-process.log", level=logging.INFO,
                        format="%(levelname)s %(message)s")
    logging.captureWarnings(True)
    return marketpanel


def _print_summary(record: dict) -> None:
    print(f"{record['workload']} (seed {record['seed']}, synth seed {record['synth_seed']}): "
          f"{record['attempted']} operations attempted, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so that a running child process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    try:
        program = load_program()
        names = [args.workload] if args.workload else list(WORKLOADS)
        records = [run_workload(program, WORKLOADS[n], args.seed, args.seconds,
                                bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        _print_summary(record)
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
              "failed": failed,
              "metrics": (records[0]["metrics"] if len(records) == 1
                          else {r["workload"]: r["metrics"] for r in records})}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
