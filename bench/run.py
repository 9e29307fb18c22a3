"""kapparec benchmark driver.

Run from the root of a checkout:

    python3 bench/run.py --workload tr-ladder --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --record        # rewrite bench/expected.json

Workloads (see NOTES.md): ``tr-ladder`` and ``oracle-cold`` run in-process
passes, each in a fresh interpreter (``worker.py``); ``cli-e2e`` runs the
user's command list as ``python -m kapparec.cli`` processes against a fresh
cache file, twice (cold, then reading the cache).  Passes repeat until
``--seconds`` have gone by; times are per-operation medians over passes,
scaled to a nominal host speed (NOTES.md says how and why).  Every value a
pass produces is gated against the committed digests in ``expected.json``
and, where one exists, the closed form; a mismatch is a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass report the per-layer metrics
and the tracing overhead, and the spans go to ``.bench_tmp/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
SETUP_PROBES = 4  # set-up samples taken after every pass
RUN_LIMIT_S = 170.0  # every child is killed before the run overshoots this


def _ratio(num: str, den: str):
    return lambda raw: raw.get(num, 0) / raw[den] if raw.get(den) else 0.0


# per-layer metrics that are not the raw trace total of the same name
DERIVED = {
    "intersect.kw_number.distinct_ratio": _ratio("intersect.kw_number.distinct", "intersect.kw_number.calls"),
    "intersect.cache.get.hit_ratio": _ratio("intersect.cache.get.hits", "intersect.cache.get.calls"),
    "intersect.cache.load_s": lambda raw: raw.get("intersect.cache.load.s", 0),
    "intersect.cache.save_s": lambda raw: raw.get("intersect.cache.save.s", 0),
}


def declared(root: Path, kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    blob = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in blob[kind]}


def layer_metrics(raw: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {
        name: {"value": DERIVED[name](raw) if name in DERIVED else raw.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }


# -- child processes ------------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    spawned: float  # time.monotonic() just before the spawn
    wall_s: float
    cpu_s: float  # user + system time of the child
    rss_mib: float  # the child's peak resident set


class Runner:
    """Spawns children in the checkout with the checkout's ``src`` on the path."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.tmp = root / ".bench_tmp"
        self.tmp.mkdir(exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k not in ("KAPPAREC_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, argv: list[str]) -> Child:
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        with tempfile.TemporaryFile(dir=self.tmp) as out, tempfile.TemporaryFile(dir=self.tmp) as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root, env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                proc.returncode, out.read(), err.read(), t0, wall,
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
            )

    def python(self, *args: str) -> Child:
        return self.spawn([sys.executable, *args])


# -- passes ------------------------------------------------------------------------------


@dataclass
class Pass:
    rss_mib: float = 0.0
    # host-speed reference batches: [operations finished before it, samples]
    refs: list[list] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)  # (measured, nominal-speed)
    # one [name, digest, closed-form verdict, wall_s, cpu_s] per operation
    items: list[list] = field(default_factory=list)
    probes: int = 0  # set-up probes that are checked for exit code 0
    probes_failed: int = 0
    raw: dict[str, float] = field(default_factory=dict)  # trace totals
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(item[3] for item in self.items)

    @property
    def speed(self) -> float:
        """Nominal over measured host speed, over the whole pass."""
        return workloads.REF_NOMINAL_S / statistics.median(x for _, batch in self.refs for x in batch)

    def op_speeds(self) -> list[float]:
        """Per operation, nominal over measured host speed from the
        REF_WINDOW reference batches before it and the REF_WINDOW after it:
        its time times this factor is seconds at the nominal speed."""
        out = []
        for i in range(len(self.items)):
            last = max(j for j, (at, _) in enumerate(self.refs) if at <= i)
            window = self.refs[max(0, last + 1 - workloads.REF_WINDOW):last + 1 + workloads.REF_WINDOW]
            out.append(workloads.REF_NOMINAL_S / statistics.median(x for _, b in window for x in b))
        return out


def _last_json(child: Child, what: str) -> dict:
    if child.code != 0:
        tail = child.err.decode(errors="replace")[-2000:]
        raise RuntimeError(f"{what} exited with {child.code}:\n{tail}")
    return json.loads(child.out.decode().strip().splitlines()[-1])


def _read_trace(path: Path, into: Pass) -> None:
    blob = json.loads(path.read_text())
    for k, v in blob["raw"].items():
        into.raw[k] = into.raw.get(k, 0) + v
    into.spans += blob["spans"]
    path.unlink()


def in_process_pass(runner: Runner, workload: str, seed: int, trace: Path | None) -> Pass:
    worker = str(BENCH / "worker.py")
    argv = [worker, "pass", "--workload", workload, "--seed", str(seed)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    child = runner.python(*argv)
    res = _last_json(child, f"{workload} pass")
    p = Pass(child.rss_mib, res["refs"], items=res["ops"])

    def probe():
        child = runner.python(worker, "pass", "--workload", workload, "--setup-only")
        return child, _last_json(child, "set-up probe")["ready"] - child.spawned

    for _ in range(SETUP_PROBES):
        setup_probe(p, probe)
    if trace is not None:
        _read_trace(trace, p)
    return p


def cli_pass(runner: Runner, seed: int, trace: Path | None) -> Pass:
    """Round 1 computes and writes a fresh cache file; round 2 reads it."""
    cache = runner.tmp / f"cache-{os.getpid()}.json"
    cache.unlink(missing_ok=True)
    commands = workloads.cli_commands(workloads.plan("cli-e2e", seed))
    p = Pass()
    p.refs.append([0, workloads.reference_samples(workloads.REF_EDGE_SAMPLES)])
    for rnd in (1, 2):
        for i, cmd in enumerate(commands):
            full = [*cmd, "--cache", str(cache)]
            if trace is None:
                child = runner.python("-m", "kapparec.cli", *full)
            else:
                path = runner.tmp / f"trace-{os.getpid()}-{rnd}-{i}.json"
                child = runner.python(
                    str(BENCH / "worker.py"), "cli", "--trace", str(path),
                    "--run", str(rnd * 100 + i), "--", *full,
                )
                _read_trace(path, p)
            digest = workloads.sha256(child.out) if child.code == 0 else f"exit {child.code}"
            p.items.append([" ".join(cmd), digest, None, child.wall_s, child.cpu_s])
            p.rss_mib = max(p.rss_mib, child.rss_mib)
            p.refs.append([len(p.items), workloads.reference_samples(workloads.REF_STEP_SAMPLES)])
    p.refs.append([len(p.items), workloads.reference_samples(workloads.REF_EDGE_SAMPLES)])

    # set-up as users pay it on every command: interpreter, imports, cache open
    def probe():
        child = runner.python("-m", "kapparec.cli", "cache", "--action", "stats", "--cache", str(cache))
        return child, child.wall_s

    for _ in range(SETUP_PROBES):
        child = setup_probe(p, probe)
        p.probes += 1
        p.probes_failed += child.code != 0
    p.raw["intersect.cache.file_bytes"] = cache.stat().st_size
    cache.unlink(missing_ok=True)
    return p


def setup_probe(into: Pass, spawn) -> Child:
    """Run one set-up probe between host-speed reference samples, so its
    sample is scaled by the host speed at that moment, not the pass's.
    ``spawn()`` returns the probe child and its set-up time."""
    refs = workloads.reference_samples(workloads.REF_STEP_SAMPLES)
    child, setup_s = spawn()
    refs += workloads.reference_samples(workloads.REF_STEP_SAMPLES)
    into.setups.append((setup_s, setup_s * workloads.REF_NOMINAL_S / statistics.median(refs)))
    return child


def run_pass(runner: Runner, workload: str, seed: int, trace: Path | None = None) -> Pass:
    if workload == "cli-e2e":
        return cli_pass(runner, seed, trace)
    return in_process_pass(runner, workload, seed, trace)


# -- gating and statistics ------------------------------------------------------------


def gate(workload: str, items: list[list], expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one pass's operations.

    An operation fails when its digest differs from the committed one (a
    wrong value, a non-zero exit, or an item nobody recorded) or when it
    misses its closed form.  A pass that checked nothing is one failure.
    """
    if not items:
        return 1, 1, ["the pass checked nothing"]
    recorded = expected["ops"].get(workload, {})
    reasons = []
    for name, digest, closed, *_ in items:
        if recorded.get(name) != digest:
            reasons.append(f"{name}: digest {digest[:16]} != recorded {str(recorded.get(name))[:16]}")
        elif closed is False:
            reasons.append(f"{name}: misses its closed form")
    return len(items), len(reasons), reasons


def per_op_median_sum(passes: list[Pass], column: int) -> float:
    """A pass's time at the nominal host speed, built operation by operation:
    the sum over operations of each one's median across passes.  Host
    interference that slows a few seconds of one pass moves a few
    operations' samples, not their medians."""
    return sum(
        statistics.median(col)
        for col in zip(*([it[column] * f for it, f in zip(p.items, p.op_speeds())] for p in passes))
    )


def _spread(values: list[float]) -> str:
    text = f"median {statistics.median(values):.4f} n={len(values)}"
    if len(values) < 2:
        return text
    q = statistics.quantiles(values, n=4)
    return f"{text} q1={q[0]:.4f} q3={q[2]:.4f}"


def measure(workload: str, seed: int, seconds: int, traced: bool, root: Path) -> dict:
    expected = json.loads(EXPECTED.read_text())
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    # compile bytecode once, untimed, so no pass pays for it
    _last_json(runner.python(str(BENCH / "worker.py"), "pass", "--workload", "tr-ladder", "--setup-only"), "warm-up")
    passes: list[Pass] = []
    if traced:
        passes.append(run_pass(runner, workload, seed))
        passes.append(run_pass(runner, workload, seed, runner.tmp / f"spans-{os.getpid()}.json"))
    else:
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(run_pass(runner, workload, seed))
    attempted = failed = 0
    for p in passes:
        a, f, reasons = gate(workload, p.items, expected)
        attempted += a + p.probes
        failed += f + p.probes_failed
        for r in reasons[:20]:
            print(f"FAILED {workload}: {r}")
    digest = workloads.workload_digest([(it[0], it[1]) for it in passes[-1].items])
    if seed == expected["default_seed"]:
        same = digest == expected["workloads"][workload]
        print(f"digest {workload} seed={seed}: {digest} ({'matches' if same else 'DIFFERS from'} the recorded one)")
        attempted += 1
        failed += not same
    else:
        print(f"digest {workload} seed={seed}: {digest}")
    if traced:
        untraced, tr = passes
        raw = dict(tr.raw)
        raw["trace.overhead_ratio"] = tr.wall_s / untraced.wall_s - 1
        raw["fail_ratio"] = failed / attempted
        metrics = layer_metrics(raw, declared(root, "per_layer"))
        out = runner.tmp / f"trace-{workload}.json"
        out.write_text(json.dumps({
            "workload": workload, "seed": seed,
            "untraced_wall_s": untraced.wall_s, "traced_wall_s": tr.wall_s,
            "metrics": metrics, "raw": raw,
            "span_fields": tracer.SPAN_FIELDS,
            "spans": tr.spans,
        }, sort_keys=True))
        print(f"trace {workload}: overhead {raw['trace.overhead_ratio']:.3f}, spans in {out.relative_to(root)}")
    else:
        metrics = {
            "wall_s": per_op_median_sum(passes, 3),
            "cpu_s": per_op_median_sum(passes, 4),
            "setup_s": statistics.median(nominal for p in passes for _, nominal in p.setups),
            "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
        }
        print(f"{workload} measured pass wall_s: {_spread([p.wall_s for p in passes])}")
        print(f"{workload} measured setup_s: {_spread([raw for p in passes for raw, _ in p.setups])}")
        print(f"{workload} host speed factor: {_spread([p.speed for p in passes])}")
        print(f"{workload} fail_ratio: {failed}/{attempted}")
        units = declared(root, "end_to_end")
        metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- recording ---------------------------------------------------------------------------


def record(root: Path) -> int:
    """Rewrite expected.json from the current program: every pool item's
    digest, and each workload's digest on the default seed."""
    runner = Runner(root, time.monotonic() + 3600)
    ops: dict[str, dict[str, str]] = {}
    digests = {}
    seed = workloads.DEFAULT_SEED
    for workload in workloads.IN_PROCESS:
        child = runner.python(str(BENCH / "worker.py"), "pass", "--workload", workload, "--all-pool")
        items = _last_json(child, f"{workload} recording pass")["ops"]
        bad = [it[0] for it in items if it[2] is False]
        if bad:
            print(f"refusing to record: closed form missed by {bad}", file=sys.stderr)
            return 1
        ops[workload] = {it[0]: it[1] for it in items}
        items = in_process_pass(runner, workload, seed, None).items
        digests[workload] = workloads.workload_digest([(it[0], it[1]) for it in items])
    cache = runner.tmp / f"cache-{os.getpid()}.json"
    cache.unlink(missing_ok=True)
    ops["cli-e2e"] = {}
    for cmd in workloads.all_cli_commands():
        child = runner.python("-m", "kapparec.cli", *cmd, "--cache", str(cache))
        if child.code != 0:
            print(f"refusing to record: {' '.join(cmd)} exited with {child.code}", file=sys.stderr)
            return 1
        ops["cli-e2e"][" ".join(cmd)] = workloads.sha256(child.out)
    cache.unlink(missing_ok=True)
    names = [" ".join(c) for c in workloads.cli_commands(workloads.plan("cli-e2e", seed))] * 2
    digests["cli-e2e"] = workloads.workload_digest([(n, ops["cli-e2e"][n]) for n in names])
    blob = {"default_seed": seed, "workloads": digests, "ops": ops}
    EXPECTED.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in ops.values())} digests in {EXPECTED.relative_to(root)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="kapparec benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite the committed digests")
    args = ap.parse_args(argv)
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "kapparec" / "__init__.py").is_file():
        print("run from the root of a kapparec checkout: src/kapparec is missing", file=sys.stderr)
        return 2
    if args.record:
        return record(root)
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
