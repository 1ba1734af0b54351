"""Every argv of the golden-output corpus writes the exit code, stdout and
stderr that ``golden.json`` records; ``golden.py`` builds the argvs and
rewrites the file."""

import shlex

import pytest

import golden
from core3 import arith, routes

CORPUS = golden.load()
KEYS = [shlex.join(argv) for argv in golden.argvs()]


def test_the_corpus_records_every_argv_in_order():
    assert list(CORPUS) == KEYS


@pytest.mark.parametrize("key", KEYS, ids=KEYS)
def test_output_matches_the_corpus(key):
    report = golden.mismatch(key, CORPUS[key])
    assert report is None, report


def test_a_changed_count_or_refusal_names_the_first_argv_that_differs(monkeypatch):
    # 3 more at 2**2 keeps sigma's divisibility by 3 and breaks A3 wherever
    # 4 exactly divides 3n+2: at n = 6 first, where sigma(20)/3 reads 20, not 14
    with monkeypatch.context() as patch:
        rule = arith._sigma_prime_power
        patch.setattr(arith, "_sigma_prime_power",
                      lambda p, a: rule(p, a) + 3 * (p == 2 and a == 2))
        report = golden.first_mismatch(CORPUS)
    assert report.startswith("'compute A3 6' differs from the corpus:\n")
    assert '-{"kind": "A3", "n": 6, "value": "14", "method": "formula"}' in report
    assert '+{"kind": "A3", "n": 6, "value": "20", "method": "formula"}' in report
    # one refusal reworded: the first budget refusal, brute force past its cap
    check = routes._check_budget

    def reworded(*args):
        try:
            check(*args)
        except routes.UsageError as exc:
            raise routes.UsageError(f"{exc}.") from None

    monkeypatch.setattr(routes, "_check_budget", reworded)
    report = golden.first_mismatch(CORPUS)
    key = "compute a3 100 --method brute"
    assert report.startswith(f"{key!r} differs from the corpus:\n")
    assert "+error: n=100 exceeds the brute-force cap 40; raise --brute-cap.\n" in report + "\n"
