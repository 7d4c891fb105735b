"""One benchmark process: set up a workload, time it, check it, report.

run.py starts this script in a fresh interpreter for every sample, so each
process-global cache in orelab starts cold, as it does for a user. The only
argument is a JSON object (see run.py) and the result is written as JSON to
the path it names. Set-up ends where timed work would start; the time of
that instant on the system-wide monotonic clock is reported, so the parent
can measure set-up from the moment it spawned this process. The speed probe
(probe.py) runs right after set-up and then between timed calls; every time
reported for the timed phase is already scaled to the reference host.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> None:
    recorder = None
    if spec["trace"]:
        import orelab  # noqa: F401 - the recorder patches loaded modules
        import orelab.cli  # noqa: F401
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["small"], spec["index"], spec["units"])
    workload.setup(Path(spec["workdir"]))
    out = {"ready": time.monotonic()}
    workload.probe()
    if spec["mode"] == "run":
        if recorder is not None:
            workload.span = recorder.span
        workload.run()
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calls = workload.scaled_calls()
        per = workload.calls_per_op
        out.update(
            wall_s=sum(wall for wall, _ in calls),
            cpu_s=sum(cpu for _, cpu in calls),
            raw_wall_s=sum(wall for wall, _ in workload.calls),
            raw_cpu_s=sum(cpu for _, cpu in workload.calls),
            ops=[sum(wall for wall, _ in calls[i : i + per]) for i in range(0, len(calls), per)],
        )
        if recorder is not None:
            from layers import layer_metrics

            out["layers"] = layer_metrics(recorder)
            recorder.uninstall()
        out.update(
            errors=workload.errors,
            failed=workload.check(spec["corrupt"]),
            items=workload.items(),
        )
    out["probe_ms"] = [ms for _, ms in workload.marks]
    Path(spec["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
