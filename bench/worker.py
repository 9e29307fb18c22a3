"""One benchmark pass in a fresh interpreter, so module caches start cold and
the process's peak RSS belongs to this pass alone.

    python bench/worker.py pass --workload tr-ladder --seed 0 [--trace FILE]
    python bench/worker.py pass --workload tr-ladder --setup-only
    python bench/worker.py pass --workload tr-ladder --all-pool
    python bench/worker.py cli --trace FILE --run 3 -- verify --suite kdv

``pass`` prints one JSON line: the monotonic time the workload was ready to
start (set-up ends there) and, for every operation, its name, the sha256 of
its canonical value, its closed-form verdict, and its wall and CPU time.
Values are serialized after the clocks stop.  ``cli`` runs one
``kapparec`` command with the tracer installed and writes the trace.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import kapparec.cli  # noqa: F401  (loads every module, so tracing patches every binding)
import workloads
from tracer import Tracer


def run_pass(args) -> int:
    p = workloads.full_plan(args.workload) if args.all_pool else workloads.plan(args.workload, args.seed)
    body = workloads.IN_PROCESS[args.workload]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    refs = [[0, workloads.reference_samples(workloads.REF_EDGE_SAMPLES)]]
    tracer = Tracer().install() if args.trace else None
    timed = []
    raised = None
    since_ref = 0.0
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        for op in body(p):
            c1 = time.process_time()
            t1 = time.perf_counter()
            timed.append((op, t1 - t0, c1 - c0))
            since_ref += t1 - t0
            if since_ref >= workloads.REF_EVERY_S:
                refs.append([len(timed), workloads.reference_samples(workloads.REF_STEP_SAMPLES)])
                since_ref = 0.0
            c0, t0 = time.process_time(), time.perf_counter()
    except Exception as exc:  # a raising operation is a failed one; the pass ends there
        traceback.print_exc()
        raised = [f"raised {type(exc).__name__}: {exc}", "raised", None,
                  time.perf_counter() - t0, time.process_time() - c0]
    finally:
        if tracer is not None:
            tracer.uninstall()
    items = [
        [op.name, workloads.sha256(workloads.canonical(op.value)), workloads.closed_form_ok(op), wall, cpu]
        for op, wall, cpu in timed
    ]
    if raised is not None:
        items.append(raised)
    refs.append([len(items), workloads.reference_samples(workloads.REF_EDGE_SAMPLES)])
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({"ready": ready, "ops": items, "refs": refs}))
    return 0


def run_cli(args) -> int:
    tracer = Tracer(run_id=args.run).install()
    try:
        code = kapparec.cli.main(args.argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.trace)
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("pass")
    sp.add_argument("--workload", required=True, choices=sorted(workloads.IN_PROCESS))
    sp.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    sp.add_argument("--trace", default=None, help="install the tracer and write spans here")
    sp.add_argument("--setup-only", action="store_true")
    sp.add_argument("--all-pool", action="store_true", help="run every pool item")
    sp.set_defaults(func=run_pass)
    sp = sub.add_parser("cli")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--run", type=int, default=0)
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    sp.set_defaults(func=run_cli)
    args = ap.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
