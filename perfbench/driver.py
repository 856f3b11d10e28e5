"""One benchmark op: import ``incidencelab.cli`` from ``<root>/src`` and call
``cli(argv)`` once per command, stopping at the first nonzero exit code.

    python3 perfbench/driver.py ROOT CMDS_JSON OP_ID STATS_JSON [SPANS_NPZ]

CMDS_JSON holds a list of argv lists.  At the end the driver writes
STATS_JSON: the import time and this process's peak RSS (``VmHWM``).  With
SPANS_NPZ the public functions are wrapped (see tracing.py) and the spans
are written there at the end; without it no wrapper is installed.  Exit code
3 means the program could not be imported from ROOT.
"""

import json
import os
import sys
import time


def peak_rss_kb() -> int:
    # VmHWM covers this process's own memory since exec.  ru_maxrss from
    # wait4 does not: exec copies the spawning process's peak into it.
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def main(argv) -> int:
    root, cmds_path, op_id, stats_path = argv[0], argv[1], int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import incidencelab.cli as cli_module
    except ImportError as exc:
        print(f"driver: cannot import incidencelab from {src}: {exc}", file=sys.stderr)
        return 3
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli_module.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"driver: incidencelab came from {cli_module.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer(op_id)
        tracer.install()
    with open(cmds_path) as fh:
        cmds = json.load(fh)
    code = 0
    for cmd in cmds:
        code = cli_module.cli(cmd)
        if code:
            break
    stats = {"import_s": import_s, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.write(spans_path)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
