"""One benchmark step in a fresh interpreter, so no engine cache carries over.

    python3 perfbench/pass_runner.py setup -- <python -m repro argv>
    python3 perfbench/pass_runner.py pass [--trace-out PATH] -- <argv>

``setup`` imports ``repro.store.cli`` and builds the engines of every spec
variant the argv names; the caller times the whole process.  ``pass`` runs
``repro.store.cli.main(argv)`` with its output captured and prints, as its
last line, a JSON object with the exit code, the wall time of ``main``, the
captured output and the process's peak RSS.  With ``--trace-out`` every
layer is traced (see ``tracing.py``) and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional


def setup(argv: List[str]) -> None:
    from repro.core.spec import build_engine, resolve_spec
    from repro.store.cli import build_parser

    args = build_parser().parse_args(argv)
    specs = [resolve_spec(name) for name in args.spec]
    if args.tdp:
        specs = [spec.variant(tdp_w=tdp) for tdp in args.tdp for spec in specs]
    for spec in specs:
        build_engine(spec)


def run_pass(argv: List[str], trace_out: Optional[Path]) -> None:
    from repro.store import cli

    main = cli.main
    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        main = tracing.install(tracer)
    output = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(output):
            code = main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(trace_out)
    print(
        json.dumps(
            {
                "exit": code,
                "seconds": seconds,
                "stdout": output.getvalue(),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--trace-out", type=Path, default=None)
    split = sys.argv.index("--") if "--" in sys.argv else len(sys.argv)
    args = parser.parse_args(sys.argv[1:split])
    argv = sys.argv[split + 1 :]
    if args.mode == "setup":
        setup(argv)
    else:
        run_pass(argv, args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
