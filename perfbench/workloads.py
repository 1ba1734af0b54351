"""The four benchmark workloads: seeded CLI commands plus their output checks.

Every command is a ``core3`` argv.  Its check runs outside the timed
region and follows the oracle rule: a route is never checked by itself.

* formula and series tables are compared with values from the Lambert
  route, computed in the benchmark process;
* the Lambert table is compared with the formula table of the same kind
  from the same pass;
* a point query past the sieve is built from two generated primes, and its
  expected value is the divisor sum over the four known divisors; a small
  point query is compared with the Lambert route;
* ``selfcheck``/``verify`` must exit 0 and report the recorded ``checked``
  counts (``expected_checked.json``, recorded at the seed commit).
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("a3", "A3", "B3")
TUPLE_SIZE = {"a3": 1, "A3": 2, "B3": 3}
DEFAULT_SIEVE_LIMIT = 10**6          # core3's default factorisation sieve
EXPECTED_CHECKED = Path(__file__).with_name("expected_checked.json")


@dataclass
class Command:
    """One CLI invocation and how to judge its output."""

    argv: list[str]
    items: int                       # rows, identity instances or 1 query
    sha256: str | None = None        # expected stdout digest
    keep: bool = False               # keep stdout for a later check
    check: object = None             # check(result, pass_results) -> error or None
    trial_path: bool = False         # point query built to factorise past the sieve


@dataclass
class Result:
    argv: list[str]
    wall_s: float
    exit_code: int
    rss_kb: int
    nbytes: int
    sha256: str
    stdout: bytes | None
    stderr: bytes
    errors: list[str] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)   # host-speed samples before it
    scaled_s: float | None = None    # wall_s scaled to a host of nominal speed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(kind: str, n: int, value: int, method: str) -> str:
    return json.dumps({"kind": kind, "n": n, "value": str(value), "method": method}) + "\n"


def render_table(kind: str, values, method: str, fmt: str) -> str:
    if fmt == "jsonl":
        return "".join(record(kind, n, v, method) for n, v in enumerate(values))
    return "kind,n,value,method\n" + "".join(
        f"{kind},{n},{v},{method}\n" for n, v in enumerate(values))


def lambert_values(core3, kind: str, order: int) -> tuple[int, ...]:
    return core3.lambert.tuple_series(TUPLE_SIZE[kind], order).coeffs


def judge(command: Command, result: Result, pass_results: list[Result]) -> list[str]:
    """Every reason the result is wrong; empty when it is right."""
    errors = []
    if result.exit_code != 0:
        tail = result.stderr.decode(errors="replace").strip()[-300:]
        errors.append(f"exit code {result.exit_code}: {tail}")
    if command.sha256 is not None and result.sha256 != command.sha256:
        errors.append("stdout differs from the oracle route")
    if command.check is not None:
        problem = command.check(result, pass_results)
        if problem:
            errors.append(problem)
    return errors


def _primes_between(lo: int, hi: int) -> list[int]:
    composite = bytearray(hi)
    for p in range(2, int(hi**0.5) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, hi, p))
    return [p for p in range(max(lo, 2), hi) if not composite[p]]


class PointQuery:
    """``compute <kind> <n>`` one subprocess per query, formula method.

    Blocks of five queries; in each block exactly one (at a seeded place)
    has its factorised argument (3n+1, 3n+2 or n+1) equal to p*q with
    primes p, q in [2e6, 2.2e6), past the default sieve and free of prime
    factors below 2e6, so it takes the trial-division path; dividing up to
    p adds about half of a small query's time, which sets the trial queries
    apart at the top of the latency distribution.  The rest have
    n < SMALL_MAX, on the sieve path.
    """

    name = "point-query"
    MIN_PASSES = 10      # 100 queries, so that query_p90_ms has 10 samples beyond it
    SMALL_MAX = 10_000
    TRIAL_PRIMES = (2_000_000, 2_200_000)
    BLOCKS_PER_PASS = 2
    BLOCK = 5

    def __init__(self, seed: int, core3):
        self.seed = seed
        self.oracle = {kind: lambert_values(core3, kind, self.SMALL_MAX)
                       for kind in KINDS}
        primes = _primes_between(*self.TRIAL_PRIMES)
        self.primes = {r: [p for p in primes if p % 3 == r] for r in (1, 2)}

    def _trial_query(self, rng: random.Random, kind: str) -> tuple[int, int]:
        """n whose factorised argument is p*q, and the value from its divisors."""
        residues = {"a3": rng.choice([(1, 1), (2, 2)]),
                    "A3": rng.choice([(1, 2), (2, 1)]),
                    "B3": (rng.choice([1, 2]), rng.choice([1, 2]))}[kind]
        p = q = 0
        while p == q:
            p, q = (rng.choice(self.primes[r]) for r in residues)
        m = p * q
        divisors = (1, p, q, m)
        if kind == "a3":
            n = (m - 1) // 3
            value = sum(1 if d % 3 == 1 else -1 for d in divisors if d % 3)
        elif kind == "A3":
            n = (m - 2) // 3
            value = sum(divisors) // 3
        else:
            n = m - 1
            value = sum((1 if d % 3 == 1 else -1) * (m // d) ** 2
                        for d in divisors if d % 3)
        return n, value

    def pass_commands(self, index: int) -> list[Command]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        commands = []
        for _ in range(self.BLOCKS_PER_PASS):
            trial_slot = rng.randrange(self.BLOCK)
            for slot in range(self.BLOCK):
                kind = rng.choice(KINDS)
                if slot == trial_slot:
                    n, value = self._trial_query(rng, kind)
                else:
                    n = rng.randrange(self.SMALL_MAX)
                    value = self.oracle[kind][n]
                commands.append(Command(
                    ["compute", kind, str(n)], items=1,
                    sha256=digest(record(kind, n, value, "formula")),
                    trial_path=slot == trial_slot))
        return commands


def _same_values_as(source: int, method: str):
    """Check: stdout equals command ``source`` of the pass, method column aside."""
    def check(result, pass_results):
        reference = pass_results[source].stdout
        if reference is None or result.stdout is None:
            return "reference output missing"
        expected = reference.replace(b",formula\n", f",{method}\n".encode())
        return None if result.stdout == expected else f"{method} table differs from formula table"
    return check


class TableRange:
    """Formula tables of a3, A3 and B3 (B3 as JSONL), plus a Lambert table of A3.

    N lies just past the point where 3n+1 and 3n+2 leave the 10^6 sieve,
    so the top of the a3 and A3 ranges runs the trial-division path.
    """

    name = "table-range"
    MIN_PASSES = 2
    N_BASE = 345_000

    def __init__(self, seed: int, core3):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        self.nmax = self.N_BASE + rng.randrange(1000)
        n = str(self.nmax)
        oracle = {kind: lambert_values(core3, kind, self.nmax) for kind in KINDS}
        self.commands = [
            Command(["table", "a3", "--nmax", n], items=self.nmax,
                    sha256=digest(render_table("a3", oracle["a3"], "formula", "csv"))),
            Command(["table", "A3", "--nmax", n], items=self.nmax, keep=True,
                    sha256=digest(render_table("A3", oracle["A3"], "formula", "csv"))),
            Command(["table", "B3", "--nmax", n, "--format", "jsonl"], items=self.nmax,
                    sha256=digest(render_table("B3", oracle["B3"], "formula", "jsonl"))),
            Command(["table", "A3", "--nmax", n, "--method", "lambert", "--order", n],
                    items=self.nmax, keep=True, check=_same_values_as(1, "lambert")),
        ]

    def pass_commands(self, index: int) -> list[Command]:
        return self.commands


class SeriesOracle:
    """Euler-product series tables of a3, A3 and B3 at order M in the low thousands."""

    name = "series-oracle"
    MIN_PASSES = 3
    M_BASE = 6000

    def __init__(self, seed: int, core3):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        m = self.M_BASE + rng.randrange(64)
        kinds = list(KINDS)
        rng.shuffle(kinds)
        self.commands = [
            Command(["table", kind, "--method", "series", "--nmax", str(m), "--order", str(m)],
                    items=m,
                    sha256=digest(render_table(kind, lambert_values(core3, kind, m),
                                               "series", "csv")))
            for kind in kinds]

    def pass_commands(self, index: int) -> list[Command]:
        return self.commands


_SELFCHECK_LINE = re.compile(r"^(\S+)\s+checked=(\d+)\s+(PASS|FAIL)")


def _reported_counts(argv: list[str], stdout: bytes) -> list[list]:
    """(family, checked) in report order, for passing reports only."""
    text = stdout.decode()
    if argv[0] == "selfcheck":
        return [[m[1], int(m[2])] for m in map(_SELFCHECK_LINE.match, text.splitlines())
                if m and m[3] == "PASS"]
    reports = json.loads(text.splitlines()[-1])["reports"]
    return [[r["family"], r["checked"]] for r in reports if r["passed"]]


def _counts_match(expected: list[list]):
    def check(result, pass_results):
        try:
            got = _reported_counts(result.argv, result.stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable report: {exc}"
        return None if got == expected else f"checked counts {got} != recorded {expected}"
    return check


class Selfcheck:
    """``selfcheck`` plus enlarged ``verify`` sweeps, in a seeded order per pass."""

    name = "selfcheck"
    MIN_PASSES = 2
    ARGVS = (
        ["selfcheck", "--nmax", "200"],
        ["verify", "BN", "--kmax", "6", "--nmax", "2000"],
        ["verify", "lin", "--nmax", "100000"],
        ["verify", "A3-residues"],
        ["verify", "B3-residues"],
        ["verify", "xia-conjecture", "--p", "5", "--alphamax", "2"],
    )

    def __init__(self, seed: int, core3):
        self.seed = seed
        recorded = json.loads(EXPECTED_CHECKED.read_text())
        self.commands = []
        for argv in self.ARGVS:
            expected = recorded[" ".join(argv)]
            self.commands.append(Command(
                list(argv), items=sum(c for _, c in expected), keep=True,
                check=_counts_match(expected)))

    def pass_commands(self, index: int) -> list[Command]:
        commands = list(self.commands)
        random.Random(f"{self.name}/{self.seed}/{index}").shuffle(commands)
        return commands


WORKLOADS = {w.name: w for w in (PointQuery, TableRange, SeriesOracle, Selfcheck)}
