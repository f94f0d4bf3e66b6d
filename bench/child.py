"""One repeat of one workload in a fresh interpreter.

Started by ``run.py`` with a JSON spec as its only argument.  The spec
carries the parent's monotonic clock reading taken just before the
process was spawned, so that set-up time covers interpreter start,
imports and input construction.  A fixed calibration kernel runs right
before and right after the pipeline call, untraced, so that the parent
can correct the times for the machine's speed at that moment.  Prints one
JSON record as its last line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed kernel of FFTs, elementwise complex
    arithmetic and small dense products, the mix emiscat spends its time
    in.  It runs no emiscat code, so changes to the program do not move
    it; on the reference machine it takes ``run.CALIBRATION_REF_S``."""
    import numpy as np
    import scipy.fft
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48, 48)) + 0j
    b = rng.standard_normal((200, 200))
    t = time.monotonic()
    for _ in range(60):
        scipy.fft.ifftn(scipy.fft.fftn(a) * a)
        np.exp(1j * b) @ b
    return time.monotonic() - t


def main() -> int:
    spec = json.loads(sys.argv[1])
    work = Path(spec["workdir"])
    import emiscat
    src = Path(spec["src"]).resolve()
    if src not in Path(emiscat.__file__).resolve().parents:
        print(f"emiscat imported from {emiscat.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    wl = WORKLOADS[spec["workload"]]
    prep = wl.prepare(json.loads((work / "inputs.json").read_text()), work)
    setup_s = time.monotonic() - spec["t_spawn"]
    calibration = [calibrate()]
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    t_call = time.monotonic()
    output = wl.call(prep)
    run_s = time.monotonic() - t_call
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    calibration.append(calibrate())
    record = {"setup_wall_s": setup_s, "run_wall_s": run_s,
              "calibration_s": calibration, "peak_rss_mib": peak_kib / 1024.0,
              "traced": bool(tracer)}
    if tracer is not None:
        from spans import layer_metrics
        tracer.dump(work / f"spans-{spec['repeat']}.json")
        record["spans"] = len(tracer.start)
        record["layers"] = layer_metrics(tracer.summary(), tracer.tally)
    t_check = time.monotonic()
    record["checks"] = wl.check(prep, output, spec["full_check"])
    record["check_s"] = time.monotonic() - t_check
    record["digest"] = wl.digest(output)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
