"""One fresh interpreter of the benchmark: import kronmf, make inputs, run one command.

Started by ``run.py`` as ``python3 child.py REQUEST_JSON``.  The request
holds ``src`` (the directory kronmf is imported from), optionally
``fresh_cache`` (a path to create as an empty cache file during set-up),
``argv`` (the CLI arguments; absent for a set-up probe) and
``trace_out`` (where to dump the spans of a traced command).

The last line of stdout is one JSON object: ``t_ready`` (monotonic clock
when kronmf is imported and the inputs exist), ``rc``, ``run_s`` (time
inside ``kronmf.cli.main``), the command's ``stdout``, ``maxrss_kb`` and
``mn_backend`` when kronmf exports one.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    request = json.loads(sys.argv[1])
    src = os.path.abspath(request["src"])
    sys.path.insert(0, src)
    import kronmf
    import kronmf.cli

    if not os.path.abspath(kronmf.__file__).startswith(src + os.sep):
        print(f"kronmf was imported from {kronmf.__file__}, not from {src}", file=sys.stderr)
        return 2
    if request.get("fresh_cache"):
        open(request["fresh_cache"], "w").close()
    result = {"t_ready": time.monotonic()}
    backend = getattr(kronmf, "MN_BACKEND", None)
    if backend is not None:
        result["mn_backend"] = backend

    if request.get("argv") is not None:
        tracer = None
        if request.get("trace_out"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                rc = kronmf.cli.main(request["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # a crash is a failed operation, reported by the parent
                traceback.print_exc()
                rc = -1
        result["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.dump(request["trace_out"])
        result["rc"] = rc
        result["stdout"] = captured.getvalue()

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
