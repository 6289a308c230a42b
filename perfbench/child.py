"""One benchmark child: import `nexpect.cli` from the checkout and run `price` once.

    python3 perfbench/child.py --result FILE [--probe]
        [--scenario FILE --csv FILE [--spans FILE]]

It imports `nexpect` from `src/` of the checkout that holds this file.
The child notes the monotonic clock just before `main()` (set-up ends
there), times `main()` with tracing off, or on when `--spans` is given,
and writes a JSON result.  With `--probe` it stops after the imports, so
the parent can sample set-up time cheaply.  An exception escaping
`main()` is recorded in the result rather than raised.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--scenario")
    parser.add_argument("--csv")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import nexpect.cli

    if not Path(nexpect.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nexpect was imported from {nexpect.cli.__file__}, not from {SRC}")
    result = {"ready": time.monotonic()}
    if args.probe:
        import numpy
        import scipy

        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["blas"] = f"{blas.get('name')} {blas.get('version')}"
    else:
        argv = ["--scenario", args.scenario, "--format", "csv", "--out", args.csv,
                "--threads", "1"]
        tracer = None
        if args.spans:
            from tracer import ROOT_SPAN, Tracer

            tracer = Tracer(run_id=Path(args.spans).stem)
            tracer.install()
        start = time.perf_counter()
        try:
            if tracer is None:
                result["exit_code"] = nexpect.cli.main(argv)
            else:
                result["exit_code"] = tracer.call(ROOT_SPAN, nexpect.cli.main, (argv,))
        except Exception:
            result["exception"] = traceback.format_exc()
        result["price_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
