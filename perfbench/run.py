"""Benchmark of the core3 command-line tool.

Run from the root of a core3 checkout:

    python3 perfbench/run.py --workload point-query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each CLI command is one ``python -m core3 ...`` subprocess, launched by
``perfbench/spawner.py`` one at a time (closed loop, one client).  With
``--trace 0`` a run measures set-up, runs the workload's MIN_PASSES passes
and more while another fits in ``--seconds``, and prints the end-to-end
metrics, its times scaled to a host of nominal speed (``host_scales``).
With ``--trace 1`` pass 0 runs once untraced and once under
``perfbench/tracer.py``, and the per-layer metrics are printed.  Outputs
are checked outside the timed region.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any command failed or gave a wrong output.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Result, judge  # noqa: E402

OUT = HERE / "out"
SETUP_REPS = 7
# Reference-loop time (spawner.reference_s) of the host the times are scaled to
REFERENCE_NOMINAL_S = 0.015
# Reference-loop seconds run before a command, as a share of the previous command's wall time
REFERENCE_SHARE = 0.08
# import plus the one-time preparation before the first query (the 10^6 sieve)
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import core3; "
                 "core3.pair_count(0); print(time.perf_counter() - t)")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

IDENTITY_FAMILIES = (
    "a3_even_power", "baruah_nath", "lin", "A3_relations", "A3_residue_families",
    "b3_power_families", "B3_relations", "B3_residue_families", "xia_congruences",
    "xia_conjecture", "cross_validate",
)
COUNTERS = ("core_count", "pair_count", "triple_count")

PER_LAYER = (
    ("arith.sieve_build_s", "s", "lower"),
    ("arith.sieve_limit", "count", "lower"),
    ("arith.factorize_calls_sieve", "count", "lower"),
    ("arith.factorize_calls_trial", "count", "lower"),
    ("arith.factorize_s", "s", "lower"),
    ("arith.trial_query_share", "ratio", "lower"),
    *((f"arith.{c}_{part}", unit, "lower")
      for c in COUNTERS for part, unit in (("calls", "count"), ("self_s", "s"))),
    ("series.mul_calls", "count", "lower"),
    ("series.mul_s", "s", "lower"),
    ("series.div_calls", "count", "lower"),
    ("series.div_s", "s", "lower"),
    ("series.mul_term_products", "count", "lower"),
    ("series.euler_product_s", "s", "lower"),
    ("series.euler_product_cache_hits", "count", "higher"),
    ("lambert.core_series_s", "s", "lower"),
    ("lambert.pair_series_s", "s", "lower"),
    ("lambert.triple_series_s", "s", "lower"),
    ("partitions.brute_tuple_count_calls", "count", "lower"),
    ("partitions.brute_tuple_count_s", "s", "lower"),
    ("partitions.is_t_core_calls", "count", "lower"),
    ("partitions.core_hit_ratio", "ratio", "higher"),
    *((f"identities.{fam}_{part}", unit, better) for fam in IDENTITY_FAMILIES
      for part, unit, better in (("s", "s", "lower"), ("checked", "count", "higher"))),
    ("identities.self_s", "s", "lower"),
    ("identities.counter_calls_per_instance", "calls/instance", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
)


def child_env() -> dict:
    """The user's environment without core3/Python knobs, plus fixed ones."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("CORE3_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """The small helper process (``spawner.py``) that launches and times each command."""

    def __init__(self, env: dict):
        self.env = env
        self.last_wall_s = 0.0
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, stdout_path) -> dict:
        request = {"argv": cmd, "cwd": str(ROOT), "env": self.env, "stdout": str(stdout_path),
                   "reference_min_s": REFERENCE_SHARE * self.last_wall_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        self.last_wall_s = reply["wall_s"]
        return reply

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_cli(spawner, argv, keep=False, trace_path=None) -> Result:
    """One CLI subprocess with stdout redirected to a file, hashed afterwards.

    A file, not a pipe: a parent draining a pipe preempts the child on every
    write (about 10^5 context switches per table) and adds 40% noisy wall time.
    """
    if trace_path is None:
        cmd = [sys.executable, "-m", "core3", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *argv]
    OUT.mkdir(exist_ok=True)
    stdout_path = OUT / "stdout.bin"
    reply = spawner.run(cmd, stdout_path)
    digest = hashlib.sha256()
    kept = [] if keep else None
    nbytes = 0
    with open(stdout_path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            nbytes += len(chunk)
            if kept is not None:
                kept.append(chunk)
    stdout_path.unlink()
    return Result(list(argv), reply["wall_s"], reply["exit_code"], reply["rss_kb"], nbytes,
                  digest.hexdigest(), b"".join(kept) if keep else None,
                  reply["stderr"].encode(), reference_s=reply["reference_s"])


def run_pass(spawner, commands, trace_dir=None):
    results = []
    for i, command in enumerate(commands):
        trace_path = None
        if trace_dir is not None:
            trace_path = trace_dir / f"trace-{i}.json"
            trace_path.unlink(missing_ok=True)
        results.append(run_cli(spawner, command.argv, keep=command.keep, trace_path=trace_path))
    for command, result in zip(commands, results):
        result.errors = judge(command, result, results)
    return results


def measure_setup(spawner) -> tuple[list[tuple], list[str]]:
    """SETUP_REPS fresh interpreters, each printing its own set-up time.

    Returns (seconds or None, reference samples taken before it) per run.
    """
    runs, errors = [], []
    OUT.mkdir(exist_ok=True)
    stdout_path = OUT / "setup.out"
    for _ in range(SETUP_REPS):
        reply = spawner.run([sys.executable, "-c", SETUP_SNIPPET], stdout_path)
        text = stdout_path.read_text()
        stdout_path.unlink()
        if reply["exit_code"] != 0:
            errors.append(f"setup exited {reply['exit_code']}: {reply['stderr'].strip()[-300:]}")
            runs.append((None, reply["reference_s"]))
        else:
            runs.append((float(text), reply["reference_s"]))
    return runs, errors


def host_scales(references) -> list[float]:
    """Per timed process, the factor taking its time to a host of nominal speed.

    ``references[i]`` holds the reference-loop samples taken just before
    process i; those of process i+1 were taken just after it.  The host's
    speed changes by up to 2x from one few-second stretch to the next, and
    a process's time moves with the reference loop's around it.
    """
    scales = []
    for i, before in enumerate(references):
        around = before + (references[i + 1] if i + 1 < len(references) else [])
        scales.append(REFERENCE_NOMINAL_S / statistics.fmean(around))
    return scales


def _timings(passes, wall) -> tuple[dict, list[float], float]:
    """Timing metrics of the passes, with ``wall(result)`` as each command's time."""
    results = [r for _, pass_results in passes for r in pass_results]
    # one latency per distinct command: the median of its invocations
    by_argv = {}
    for r in results:
        by_argv.setdefault(tuple(r.argv), []).append(wall(r) * 1000)
    latencies_ms = [statistics.median(walls) for walls in by_argv.values()]
    p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
    items = sum(c.items for commands, _ in passes for c in commands)
    metrics = {
        "wall_s": statistics.median(sum(wall(r) for r in rs) for _, rs in passes),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p90_ms": p90,
        "items_per_s": items / sum(wall(r) for r in results),
    }
    return metrics, latencies_ms, p90


def end_to_end(workload, spawner, seconds):
    """MIN_PASSES passes, then more while another fits in ``seconds``; e2e metrics."""
    setup, setup_errors = measure_setup(spawner)
    passes = []
    started = time.perf_counter()
    index = 0
    while True:
        commands = workload.pass_commands(index)
        results = run_pass(spawner, commands)
        passes.append((commands, results))
        for result in results:
            result.stdout = None
        index += 1
        pass_s = statistics.median(sum(r.wall_s for r in rs) for _, rs in passes)
        if len(passes) >= workload.MIN_PASSES and time.perf_counter() - started + pass_s > seconds:
            break
    results = [r for _, pass_results in passes for r in pass_results]
    scales = host_scales([ref for _, ref in setup] + [r.reference_s for r in results])
    for result, scale in zip(results, scales[len(setup):]):
        result.scaled_s = result.wall_s * scale
    setup_scaled = [t * k for (t, _), k in zip(setup, scales) if t is not None]
    metrics, latencies_ms, p90 = _timings(passes, lambda r: r.scaled_s)
    metrics["peak_rss_mb"] = max(r.rss_kb for r in results) / 1024
    metrics["setup_s"] = statistics.median(setup_scaled) if setup_scaled else 0.0
    unscaled = _timings(passes, lambda r: r.wall_s)[0]
    setup_raw = [t for t, _ in setup if t is not None]
    unscaled["setup_s"] = statistics.median(setup_raw) if setup_raw else 0.0
    detail = {"passes": len(passes), "queries": len(results),
              "distinct_commands": len(latencies_ms),
              "commands_beyond_p90": sum(1 for w in latencies_ms if w > p90),
              "host_scale_median": statistics.median(scales), "unscaled": unscaled,
              "setup_runs": [t for t, _ in setup], "setup_errors": setup_errors}
    return metrics, results, setup_errors, detail


def _sum_traces(traces):
    stats, edges, counters, hits = {}, {}, {}, 0
    for trace in traces:
        for name, (calls, incl, self_s) in trace["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += self_s
        for key, value in trace["edges"].items():
            edges[key] = edges.get(key, 0) + value
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        hits += trace["cache_info"].get("series.euler_product", {}).get("hits", 0)
    return stats, edges, counters, hits


def layer_metrics(traces, untraced, traced):
    stats, edges, counters, hits = _sum_traces(traces)

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    m = {
        "arith.sieve_build_s": incl("arith.SpfSieve"),
        "arith.sieve_limit": max((t["sieve_limit"] for t in traces), default=0),
        "arith.factorize_calls_sieve": counters.get("factorize_sieve", 0),
        "arith.factorize_calls_trial": counters.get("factorize_trial", 0),
        "arith.factorize_s": self_s("arith.factorize"),
        "arith.trial_query_share": sum(
            1 for t in traces if t["counters"].get("factorize_trial")) / len(traces),
    }
    for c in COUNTERS:
        m[f"arith.{c}_calls"] = calls(f"arith.{c}")
        m[f"arith.{c}_self_s"] = self_s(f"arith.{c}")
    m.update({
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": incl("series.mul"),
        "series.div_calls": calls("series.div"),
        "series.div_s": incl("series.div"),
        "series.mul_term_products": counters.get("mul_term_products", 0),
        "series.euler_product_s": incl("series.euler_product"),
        "series.euler_product_cache_hits": hits,
        "lambert.core_series_s": incl("lambert.core_series"),
        "lambert.pair_series_s": incl("lambert.pair_series"),
        "lambert.triple_series_s": incl("lambert.triple_series"),
        "partitions.brute_tuple_count_calls": calls("partitions.brute_tuple_count"),
        "partitions.brute_tuple_count_s": incl("partitions.brute_tuple_count"),
        "partitions.is_t_core_calls": calls("partitions.is_t_core"),
    })
    t_core = calls("partitions.is_t_core")
    m["partitions.core_hit_ratio"] = counters.get("t_core_hits", 0) / t_core if t_core else 0
    checked_total = 0
    for fam in IDENTITY_FAMILIES:
        fn = fam if fam == "cross_validate" else f"check_{fam}"
        m[f"identities.{fam}_s"] = incl(f"identities.{fn}")
        m[f"identities.{fam}_checked"] = counters.get(f"checked:{fam}", 0)
        checked_total += m[f"identities.{fam}_checked"]
    m["identities.self_s"] = sum(v[2] for k, v in stats.items() if k.startswith("identities."))
    counter_calls = sum(v for k, v in edges.items() if k.startswith("identities.") and
                        k.split(">")[1] in ("arith.core_count", "arith.pair_count",
                                            "arith.triple_count", "arith.sigma"))
    m["identities.counter_calls_per_instance"] = (
        counter_calls / checked_total if checked_total else 0)
    m["cli.self_s"] = self_s("cli.main")
    m["cli.bytes_out"] = sum(r.nbytes for r in traced)
    base = sum(r.scaled_s for r in untraced)
    m["trace.overhead_s"] = sum(r.scaled_s for r in traced) - base
    m["trace.overhead_frac"] = m["trace.overhead_s"] / base
    m["trace.bookkeeping_s"] = sum(t["bookkeeping_s"] for t in traces)
    return m


def predictions(name, metrics, commands):
    """The bypass side of each workload pair: what must not run."""
    checks = []
    if name == "series-oracle":
        checks.append(("no sieve is built", metrics["arith.sieve_build_s"] == 0))
        checks.append(("no factorize calls", metrics["arith.factorize_calls_sieve"]
                       + metrics["arith.factorize_calls_trial"] == 0))
    if name in ("table-range", "point-query"):
        checks.append(("no series.mul calls", metrics["series.mul_calls"] == 0))
    if name == "point-query":
        share = sum(c.trial_path for c in commands) / len(commands)
        checks.append((f"trial-path share {metrics['arith.trial_query_share']:.3f} "
                       f"== generated {share:.3f}",
                       metrics["arith.trial_query_share"] == share))
    return checks


# selfcheck prints each battery group's elapsed time, e.g. "[4.14s]"
_TIMING = re.compile(rb"\[\d+\.\d+s\]")


def traced_run(workload, spawner):
    commands = workload.pass_commands(0)
    untraced = run_pass(spawner, commands)
    trace_dir = OUT / workload.name
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = run_pass(spawner, commands, trace_dir=trace_dir)
    both = untraced + traced
    for result, scale in zip(both, host_scales([r.reference_s for r in both])):
        result.scaled_s = result.wall_s * scale
    traces = []
    for i, (plain, result) in enumerate(zip(untraced, traced)):
        if plain.stdout is not None and result.stdout is not None:
            same = _TIMING.sub(b"", plain.stdout) == _TIMING.sub(b"", result.stdout)
        else:
            same = plain.sha256 == result.sha256
        if not same:
            result.errors.append("traced stdout differs from untraced stdout")
        try:
            traces.append(json.loads((trace_dir / f"trace-{i}.json").read_text()))
        except (OSError, ValueError) as exc:
            result.errors.append(f"no trace written: {exc}")
            traces.append({"stats": {}, "edges": {}, "counters": {}, "cache_info": {},
                           "sieve_limit": 0, "dropped_spans": 0, "bookkeeping_s": 0.0})
    metrics = layer_metrics(traces, untraced, traced)
    detail = {"predictions": [{"check": text, "held": held}
                              for text, held in predictions(workload.name, metrics, commands)],
              "dropped_spans": sum(t["dropped_spans"] for t in traces)}
    return metrics, untraced + traced, [], detail


def environment(seed) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "core3").glob("*.py")):
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": _git_commit(), "src_sha256": src.hexdigest(), "seed": seed}


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace, spawner):
    import core3  # the Lambert oracle route, from the checkout's src/
    workload = WORKLOADS[name](seed, core3)
    if trace:
        metrics, results, extra_errors, detail = traced_run(workload, spawner)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, results, extra_errors, detail = end_to_end(workload, spawner, seconds)
        units = {n: u for n, u, _ in END_TO_END}
    failed = sum(1 for r in results if r.errors) + len(extra_errors)
    attempted = len(results) + (0 if trace else SETUP_REPS)
    summary = {
        "workload": name, "trace": trace, "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
        "errors": extra_errors + [f"{' '.join(r.argv)}: {e}" for r in results for e in r.errors],
        "commands": [{"argv": r.argv, "wall_s": r.wall_s, "exit": r.exit_code,
                      "rss_kb": r.rss_kb, "bytes": r.nbytes, "scaled_s": r.scaled_s,
                      "reference_s": r.reference_s}
                     for r in results],
    }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "core3" / "cli.py").is_file():
        print(f"error: no core3 sources under {ROOT / 'src'}; run from a core3 checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    env = child_env()
    subprocess.run([sys.executable, "-c", "import core3"], cwd=ROOT, env=env, check=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = environment(args.seed)
    with Spawner(env) as spawner:
        summaries = [run_workload(name, args.seed, args.seconds, args.trace, spawner)
                     for name in names]
    OUT.mkdir(exist_ok=True)
    for s in summaries:
        (OUT / f"{s['workload']}-trace{args.trace}.json").write_text(
            json.dumps({"env": info, **s}, indent=1))
    print(f"# env {json.dumps(info)}")
    metrics = {}
    for s in summaries:
        print(f"# {s['workload']}: {s['attempted']} commands, {s['failed']} failed, "
              f"ops_failed_frac {s['ops_failed_frac']:g}, detail {json.dumps(s['detail'])}")
        for error in s["errors"]:
            print(f"#   FAILED {error}")
        for key, entry in s["metrics"].items():
            label = key if len(names) == 1 else f"{s['workload']}/{key}"
            print(f"{label:48} {entry['value']:>16.6g} {entry['unit']}")
            metrics[label] = entry
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
