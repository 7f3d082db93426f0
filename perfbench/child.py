"""One charlierbd CLI invocation in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py SPEC.json

SPEC is a JSON object with keys `src` (the checkout's `src` directory),
`config`, `argv` (the CLI arguments), `mode` and `result` (where this
process writes its JSON result). The modes are:

- `setup`: import `charlierbd.cli` (with numpy and scipy) and parse the
  config, nothing more;
- `plain`: set up, then time `charlierbd.cli.main(argv)` with only the
  result probes installed;
- `trace`: the same with every span wrapper installed.

The result holds `setup_s`, `wall_s`, `rc`, `peak_rss_mb` (ru_maxrss of
this process), the captured solver meta and, when traced, the per-layer
summary.
"""

import json
import resource
import sys
import time
import traceback


def _blas_threads():
    """OpenBLAS thread count of the loaded numpy, or -1 if unknown."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return -1


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from charlierbd import cli, harness
    harness.ExperimentConfig.from_file(spec["config"])
    out = {"setup_s": time.perf_counter() - t0, "module": cli.__file__}

    if spec["mode"] != "setup":
        import tracer

        captured = {}
        rec = tracer.Tracer() if spec["mode"] == "trace" else None
        undo_spans = rec.install() if rec else (lambda: None)
        undo_probes = tracer.install_probes(captured)
        run = rec.wrap(cli.main, "cli.main") if rec else cli.main
        t1 = time.perf_counter()
        try:
            rc = run(spec["argv"])
        except Exception:
            rc = -1
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t1
        undo_probes()
        undo_spans()
        out.update(rc=rc, meta=captured, blas_threads=_blas_threads())
        if rec is not None:
            out["layers"] = rec.summarise()

    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
