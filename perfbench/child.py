"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py '<spec json>'

The spec names the workload, its inputs, the child-run id, whether to trace,
and (for mu jobs) the expected value.  The child imports numpy and then
quadsg.cli, reports the monotonic time at which it was ready, runs the job
(timed, with getrusage deltas), checks the output (untimed) and prints one
JSON report as its last stdout line.  The job's own stdout and stderr are
captured, so they never mix with the report.  A spec with workload "probe"
stops after the imports.
"""

import json
import resource
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    t_start = time.monotonic()
    import numpy  # noqa: F401  (timed on its own: setup.numpy_import_s)

    t_numpy = time.monotonic()
    import quadsg.cli  # noqa: F401

    t_ready = time.monotonic()
    report = {
        "run_id": spec["run_id"],
        "ready_at": t_ready,
        "numpy_import_s": t_numpy - t_start,
        "quadsg_import_s": t_ready - t_numpy,
        "quadsg_file": quadsg.cli.__file__,
    }
    workload = spec["workload"]
    if workload != "probe":
        import jobs

        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.install()
            tracer.active = True
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = jobs.run_job(workload, spec["inputs"])
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.active = False
            report.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
        report.update(
            wall_s=t1 - t0,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss * 1024 / 1e6,
        )
        if workload.startswith("mu_"):
            report["table_bytes"] = quadsg.shared_table().values.nbytes
        report["checks"] = jobs.check_job(workload, spec["inputs"], result, spec.get("expected"))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
