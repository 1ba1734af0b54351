"""Self-tests of the benchmark: tracer counts, stdout identity, metric names.

Run from the repository root (about half a minute):

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import core3  # noqa: E402


@pytest.fixture(scope="module")
def spawner():
    with run.Spawner(run.child_env()) as helper:
        yield helper


def traced(spawner, tmp_path, argv):
    path = tmp_path / "trace.json"
    result = run.run_cli(spawner, argv, keep=True, trace_path=path)
    assert result.exit_code == 0, result.stderr
    return result, json.loads(path.read_text())


def test_tracer_counts_table_calls(spawner, tmp_path):
    _, trace = traced(spawner, tmp_path, ["table", "A3", "--nmax", "10"])
    assert trace["stats"]["arith.pair_count"][0] == 10
    assert trace["stats"]["arith.factorize"][0] == 10
    assert trace["counters"]["factorize_sieve"] == 10
    assert trace["sieve_limit"] == workloads.DEFAULT_SIEVE_LIMIT


def test_tracer_counts_through_identities_bindings(spawner, tmp_path):
    # identities binds pair_count by "from .arith import"; lin makes 2 calls per n
    _, trace = traced(spawner, tmp_path, ["verify", "lin", "--nmax", "3"])
    assert trace["edges"]["identities.check_lin>arith.pair_count"] == 8
    assert trace["counters"]["checked:lin"] == 4


def test_self_time_excludes_children(spawner, tmp_path):
    _, trace = traced(spawner, tmp_path, ["table", "B3", "--nmax", "50"])
    calls, inclusive, self_s = trace["stats"]["cli.main"]
    assert calls == 1 and 0 < self_s < inclusive
    children = sum(v[1] for k, v in trace["stats"].items()
                   if f"cli.main>{k}" in trace["edges"])
    # the children's own bookkeeping after each call is not main's self time either
    assert inclusive - children - trace["bookkeeping_s"] - 1e-6 <= self_s
    assert self_s <= inclusive - children + 1e-6
    assert trace["bookkeeping_s"] > 0


@pytest.mark.parametrize("name,index", [
    ("point-query", 0), ("table-range", 1), ("series-oracle", 0), ("selfcheck", None)])
def test_traced_stdout_is_byte_identical(spawner, tmp_path, name, index):
    workload = workloads.WORKLOADS[name](0, core3)
    commands = workload.pass_commands(0)
    if index is None:   # the cheapest selfcheck-workload command
        command = next(c for c in commands if "xia-conjecture" in c.argv)
    else:
        command = commands[index]
    plain = run.run_cli(spawner, command.argv, keep=True)
    assert workloads.judge(command, plain, [plain]) == []
    result, trace = traced(spawner, tmp_path, command.argv)
    assert result.stdout == plain.stdout
    assert trace["exit"] == 0


def test_trial_queries_factorise_past_the_sieve():
    workload = workloads.PointQuery(3, core3)
    commands = workload.pass_commands(0)
    trial = [c for c in commands if c.trial_path]
    assert len(trial) == len(commands) // workload.BLOCK
    for c in trial:
        kind, n = c.argv[1], int(c.argv[2])
        m = {"a3": 3 * n + 1, "A3": 3 * n + 2, "B3": n + 1}[kind]
        assert m > workloads.DEFAULT_SIEVE_LIMIT
        assert all(m % d for d in range(2, workload.TRIAL_PRIMES[0]))
    assert all(int(c.argv[2]) < workload.SMALL_MAX for c in commands if not c.trial_path)


def test_oracle_catches_a_wrong_table():
    workload = workloads.SeriesOracle(0, core3)
    command = workload.commands[0]
    wrong = workloads.Result(command.argv, 1.0, 0, 0, 0, "0" * 64, None, b"")
    assert workloads.judge(command, wrong, [wrong])


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_children_peak_rss_excludes_the_parent(spawner):
    # the parent holds 150 MB, as the oracle tables do; `compute` itself needs ~60 MB
    ballast = b"\x01" * (150 << 20)
    result = run.run_cli(spawner, ["compute", "A3", "6"])
    assert result.rss_kb < 100 << 10
    del ballast


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "selfcheck",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
