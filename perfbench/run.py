"""Benchmark for quadsg: one workload, as a closed loop of fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The loop
has one client: a child is spawned only after the previous one exits.  Each
child imports quadsg.cli, runs one job through the public API or
`quadsg.cli.run(argv)` and checks its output (child.py).  Before the timed
loop a few probe children only import, so set-up time has enough samples.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics; attempted and failed count output checks.  With --trace 0 the
metrics are the end-to-end ones over the untraced children (mean job time
and CPU, median set-up time and peak RSS); with
--trace 1 traced and untraced children alternate and the metrics are the
per-layer ones from spans.py.  A detailed report, including every sample and
span, goes to perfbench/.work/.  README.md beside this file says why each
workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans

BENCH = Path(__file__).resolve().parent
PROBES = 6  # import-only children per run, on top of one set-up sample per job
CHILD_TIMEOUT_S = 150


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as listed in BENCHMARK.json."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    head = _read(str(root / ".git" / "HEAD"))
    if not head or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(root / ".git" / ref))
    if commit:
        return commit
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * scale


def machine_facts(root: Path, seed: int) -> dict:
    import numpy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, kind = _read(f"{base}/{index}/level"), _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}_bytes"] = _size_bytes(_read(f"{base}/{index}/size"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "seed": seed,
    }


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "quadsg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


class Runner:
    """Spawns children with an isolated environment and tallies checks."""

    def __init__(self, root: Path, workload: str):
        self.root, self.src, self.workload = root, root / "src", workload
        self.attempted = 0
        self.failed: list[str] = []
        self.children: list[dict] = []
        self.env = dict(os.environ)
        self.env.pop("QUADSG_MEMO_PATH", None)
        self.env["PYTHONPATH"] = str(self.src)

    def tally(self, verdicts: dict, where: str) -> None:
        self.attempted += len(verdicts)
        self.failed += [f"{where}: {name}" for name, ok in verdicts.items() if not ok]

    def spawn(self, spec: dict, memo_path: str | None = None) -> None:
        """Run one child to completion and keep its report, or fail all its checks."""
        env = dict(self.env)
        if memo_path is not None:
            env["QUADSG_MEMO_PATH"] = memo_path
        argv = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        names = ("child_imports_checkout_quadsg",) + jobs.CHECKS.get(spec["workload"], ())
        where = f"{spec['workload']}#{spec['run_id']}"
        lines = out.decode(errors="replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{where} exited {proc.returncode}:\n{err.decode(errors='replace')[-2000:]}\n")
            self.tally({name: False for name in names}, where)
            return
        report = json.loads(lines[-1])
        report["setup_s"] = report["ready_at"] - spawned
        report["traced"] = bool(spec.get("trace"))
        verdicts = {"child_imports_checkout_quadsg": report["quadsg_file"].startswith(str(self.src) + os.sep)}
        verdicts.update(report.get("checks", {}))
        self.tally(verdicts, where)
        self.children.append(report)


class MuFixture:
    """Reference table to MU_N and a warm cache, both built once per source tree.

    Both are built with the code under test, outside any timing; the table
    is kept in the benchmark's own .npy format so a change to the package's
    cache format cannot hide behind it.
    """

    def __init__(self, runner: Runner, work: Path):
        import numpy as np
        import quadsg

        tag = f"{jobs.MU_N}-{src_digest(runner.src)}"
        self.path = work / f"mu_fixture_{tag}.npy"
        self.warm = work / f"mu_warm_{tag}.bin"
        for stale in work.glob("mu_*"):
            if stale not in (self.path, self.warm):
                stale.unlink()
        if not self.path.exists():
            tmp = work / "mu_fixture.tmp"
            with open(tmp, "wb") as fh:
                np.save(fh, quadsg.MuTable(jobs.MU_N).values)
            os.replace(tmp, self.path)
        self.values = np.load(self.path, mmap_mode="r")
        self.warm_built = True
        if not self.warm.exists():
            tmp = work / "mu_warm.tmp"
            env = dict(runner.env, QUADSG_MEMO_PATH=str(tmp))
            argv = [sys.executable, "-m", "quadsg.cli", "mu", "--n", str(jobs.MU_N)]
            done = subprocess.run(argv, cwd=runner.root, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
            self.warm_built = done.returncode == 0 and tmp.exists()
            if self.warm_built:
                os.replace(tmp, self.warm)

    def checks(self, seed: int, warm: bool) -> dict:
        import numpy as np
        import quadsg as q

        # mu_oracle is an exhaustive search, exponential in n (6 s at n = 2000);
        # n <= 300 keeps 200 calls under a second.  checks.exact_mu covers
        # every n <= 10,000 independently.
        sample = sorted(random.Random(f"fixture-{seed}").sample(range(1, 301), 200))
        verdicts = jobs.checks.check_fixture(
            self.values, sample, q.mu_oracle, (q.lower_bound, q.gauss_bound, q.combined_bound)
        )
        if warm:
            try:
                cached = q.load_table(str(self.warm)).values
            except (OSError, ValueError):
                cached = None
            verdicts["warm_cache_equals_fixture"] = (
                self.warm_built and cached is not None and np.array_equal(cached, self.values)
            )
        return verdicts

    def saved_matches(self, path: Path, n: int) -> bool:
        import numpy as np
        import quadsg as q

        try:
            saved = q.load_table(str(path)).values
        except (OSError, ValueError):
            return False
        return len(saved) == n + 1 and bool(np.array_equal(saved, self.values[: n + 1]))


def _stat(path: Path):
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def run_job_child(runner: Runner, fixture: MuFixture | None, inputs: dict, run_id: int, traced: bool, work: Path):
    spec = {"workload": runner.workload, "inputs": inputs, "run_id": run_id, "trace": traced}
    where = f"{runner.workload}#{run_id}"
    if runner.workload == "mu_cold":
        spec["expected"] = int(fixture.values[inputs["n"]])
        tmp = work / f"cold-{os.getpid()}-{run_id}"
        tmp.mkdir()
        try:
            runner.spawn(spec, memo_path=str(tmp / "mu.cache"))
            verdicts = {"mu_cold_cache_saved_equals_fixture": fixture.saved_matches(tmp / "mu.cache", inputs["n"])}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        verdicts["mu_cold_temp_path_removed"] = not tmp.exists()
        runner.tally(verdicts, where)
    elif runner.workload == "mu_warm":
        spec["expected"] = int(fixture.values[inputs["n"]])
        before = _stat(fixture.warm)
        runner.spawn(spec, memo_path=str(fixture.warm))
        runner.tally({"mu_warm_cache_not_rewritten": before is not None and _stat(fixture.warm) == before}, where)
    else:
        runner.spawn(spec)


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return {"percentile": p, "value": sorted(samples)[max(0, math.ceil(p / 100 * n) - 1)]}


def median_of(children, key):
    values = [c[key] for c in children if key in c]
    return statistics.median(values) if values else 0.0


def mean_of(children, key):
    """Total over count: for job times, the inverse of the run's throughput.

    Job times here are multimodal (the host's CPU speed changes in phases of
    several seconds), so a run's median jumps between modes as the phase mix
    shifts, while the mean moves with it smoothly.  README.md gives the
    measured spreads of both.
    """
    values = [c[key] for c in children if key in c]
    return statistics.fmean(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    e2e_units, layer_units = metric_units()

    root = Path.cwd()
    if not (root / "src" / "quadsg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no quadsg package under {root / 'src'}; run from the repository root\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)

    import selftest

    problems = selftest.run()
    if problems:
        sys.stderr.write("perfbench: checker self-test failed:\n  " + "\n  ".join(problems) + "\n")
        return 3

    facts = machine_facts(root, args.seed)
    inputs = jobs.make_inputs(args.workload, args.seed)
    runner = Runner(root, args.workload)
    fixture = None
    if args.workload.startswith("mu_"):
        fixture = MuFixture(runner, work)
        runner.tally(fixture.checks(args.seed, args.workload == "mu_warm"), "fixture")

    for k in range(PROBES):
        runner.spawn({"workload": "probe", "run_id": -1 - k})
    start = time.monotonic()
    run_id = 0
    longest = 0.0
    while True:
        traced = bool(args.trace) and run_id % 2 == 1
        began = time.monotonic()
        run_job_child(runner, fixture, inputs, run_id, traced, work)
        run_id += 1
        longest = max(longest, time.monotonic() - began)
        # Start no child that would likely end past the deadline, so a run
        # lasts --seconds plus set-up whatever the job length.
        if time.monotonic() - start + longest > args.seconds and run_id >= (2 if args.trace else 1):
            break

    jobs_done = [c for c in runner.children if "wall_s" in c]
    plain = [c for c in jobs_done if not c["traced"]]
    traced = [c for c in jobs_done if c["traced"]]
    walls = [c["wall_s"] for c in plain]
    e2e = {
        "setup_s": median_of(runner.children, "setup_s"),
        "wall_s": mean_of(plain, "wall_s"),
        "cpu_s": mean_of(plain, "cpu_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "inputs": inputs,
        "end_to_end": e2e,
        "samples": {"setup_s": len(runner.children), "wall_s": len(walls)},
        "wall_s_median": median_of(plain, "wall_s"),
        "wall_s_tail": tail(walls),
        "checks": {"attempted": runner.attempted, "failed": runner.failed},
        "children": runner.children,
    }
    if fixture is not None and plain:
        table_bytes = statistics.median(c["table_bytes"] for c in plain)
        report["mu_table"] = {"bytes": table_bytes, "share_of_l3": table_bytes / facts["l3_bytes"] if facts.get("l3_bytes") else None}

    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("inputs: " + json.dumps(inputs))
    if "mu_table" in report:
        mt = report["mu_table"]
        share = f"{mt['share_of_l3']:.2f}x L3" if mt["share_of_l3"] else "L3 unknown"
        print(f"mu table: {mt['bytes'] / 1e6:.1f} MB = {share}")
    for line in runner.failed:
        print(f"FAILED CHECK {line}")
    print(
        f"fail_ratio   {len(runner.failed)}/{runner.attempted} = {len(runner.failed) / max(runner.attempted, 1):.4g} "
        "(output checks failed / attempted)"
    )

    if args.trace:
        layers = spans.layer_metrics(traced) if traced else {k: 0.0 for k in layer_units}
        untraced_wall = e2e["wall_s"]
        layers["setup.numpy_import_s"] = median_of(runner.children, "numpy_import_s")
        layers["setup.quadsg_import_s"] = median_of(runner.children, "quadsg_import_s")
        traced_wall = mean_of(traced, "wall_s")
        layers["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
        top_vs_untraced = layers.get("top_level_s", 0.0) / untraced_wall if untraced_wall else 0.0
        missing = traced[0]["missing"] if traced else []
        layers["trace.missing_boundaries"] = len(missing)
        report["per_layer"] = layers
        report["missing_boundaries"] = missing
        metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_units.items()}
        report["top_level_over_untraced_wall"] = top_vs_untraced
        print(f"traced jobs {len(traced)}, untraced jobs {len(plain)}; missing boundaries: {missing or 'none'}")
        print(f"top-level spans / untraced wall_s = {top_vs_untraced:.4f}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in e2e_units.items()}
        t = report["wall_s_tail"]
        tail_text = f"p{t['percentile']} {t['value']:.4f} s" if t else "none (fewer than 11 samples)"
        print(
            f"wall_s samples {len(walls)}, median {report['wall_s_median']:.4f} s, tail {tail_text}; "
            f"setup_s samples {len(runner.children)}"
        )
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")

    out = work / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"report: {out.relative_to(root) if out.is_relative_to(root) else out}")
    result = {
        "correct": not runner.failed and bool(plain) and (bool(traced) or not args.trace),
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
