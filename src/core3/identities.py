"""Sweep-based verifiers for the arithmetic identities and congruences
satisfied by 3-core partition counts.

Every proved family gets a check function that evaluates both sides over a
parameter box and returns an IdentityReport; a nonempty failure list means
an implementation bug, never a false identity.  Degenerate parameters
(k = 0, and k = 1 where a relation telescopes to a tautology) are swept on
purpose rather than skipped.

All families but Xia's conjecture, the route cross-validation and the
structural checks are data: a Relation per identity, run by one evaluator.
Every sweep reads its counts from ``arith.progression_counts``, Xia's too,
every alpha from one call.  Each report but the structural ones counts its
instances before it reads a value, and compares value lists by one rule,
``_keep``.  The ``verify`` family registry closes the module, with the two
batteries of ``core3 selfcheck`` as lists of its entries.

Only ``structural_reports`` runs the series and Lambert engines, so only it
imports them; the records are ``collections.namedtuple``s, not ``typing``'s.
"""

import time
from bisect import bisect_left, insort
from collections import namedtuple
from itertools import chain, compress, islice, repeat
from operator import add, mul, ne

from . import arith, routes


# counterexamples a report keeps; failures past them are only counted
MAX_FAILURES = 100
# ks of one relation whose sides one engine call reads at a residue; its
# working memory grows with the sides of every k of the call.  End to end on a
# 2-core Xeon at 1/4/8/16/64 ks per call (`compute A3 6`: 14.2 MB), verify
# A3-residues --kmax 400 --nmax 2000 peaks at 15.0/15.4/16.6/19.2/33.5 MB of
# RSS in 10.4/7.0/5.3/4.7/5.2 s (medians of 3), and verify B3-residues --nmax
# 20000 takes 0.88/0.65/0.62 s at 4/8/16 against 1.63 s at one call per (k, r).
_KS_PER_CALL = 8
# bits of p^j past which check_xia_conjecture refuses.  In process on a 2-core
# Xeon, at p = 3 and 1000003 alike, one alpha at nmax 0 takes 0.03/0.17/0.55/1.4 s
# at 2**11/2**12/6144/2**13 bits, each later one a product mod 3p^j more.  The
# report's k0 stays far inside CPython's 4300-digit int-to-str limit (~14 000 bits).
XIA_MAX_BITS = 1 << 13
# bits of the largest argument past which a Relation sweep is refused, before
# any instance.  In process on a 2-core Xeon at nmax 0, with kmax as large as
# the ceiling admits, the slowest families take, at 2**10/2**11/2**12 bits:
# B3-residues (kmax 363/728/1458) 0.10-0.12/0.33-0.40/1.06-1.24 s; B3-ids (kmax
# 646/1292/2584) 0.06/0.14-0.15/0.43-0.65 s; BN (kmax 511/1023/2047)
# 0.05-0.07/0.12-0.13/0.35-0.47 s.  A B3 value has about twice its argument's
# bits, so a report stays far inside CPython's 4300-digit int-to-str limit.
SWEEP_MAX_BITS = 1 << 11
# instances past which a family is refused before any instance: Relation.count
# over all its reports, or xia-conjecture's from its parameters.  End to end on
# a 2-core Xeon the largest sweeps admitted take 1.8-3.0 s for each Relation
# family and 0.8-3.1 s for xia-conjecture (3.1-4.0 s at p^j = 3^5168).
SWEEP_MAX_INSTANCES = 1 << 21


Failure = namedtuple("Failure", ("inputs", "lhs", "rhs"))


class IdentityReport:
    """Outcome of one family sweep: instance count plus any counterexamples,
    the first MAX_FAILURES of them kept and the rest counted in ``dropped``.
    Two reports are equal when all but their ``seconds`` are."""

    __slots__ = ("family", "params", "checked", "failures", "seconds", "dropped")

    def __init__(self, family: str, params: dict, checked: int,
                 failures: list[Failure] | None = None, seconds: float = 0.0,
                 dropped: int = 0):
        self.family = family
        self.params = params
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.seconds = seconds  # wall time; not in as_dict()
        self.dropped = dropped

    def _compared(self) -> tuple:
        return self.family, self.params, self.checked, self.failures, self.dropped

    def __eq__(self, other):
        if type(other) is not IdentityReport:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"IdentityReport({fields})"

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    @property
    def failed(self) -> int:
        """Every failing instance, kept or dropped."""
        return len(self.failures) + self.dropped

    def as_dict(self) -> dict:
        data = {"family": self.family, "params": self.params, "checked": self.checked,
                "failures": [{"inputs": f.inputs, "lhs": str(f.lhs), "rhs": str(f.rhs)}
                             for f in self.failures]}
        if self.dropped:
            data["failures_total"] = self.failed
        data["passed"] = self.passed
        return data


class Relation(namedtuple("Relation", ("family", "kind", "terms", "ks", "residues", "base",
                                       "coprime_to", "modulus", "labels"),
                          defaults=((None,), (None,), 1, None, None, None))):
    """F(a*m + b) == sum of c * F(a_i*m + b_i), F the counter of ``kind``.

    For k in ``ks`` and r in ``residues``, ``terms(k, r)`` gives ``(a, b)``
    and ``((c, a_i, b_i), ...)``; m = base*n + r for n = 0..n_max, less the
    n of ``skipped``, where ``coprime_to`` divides the progression value of
    ``kind`` at m (3m+2 for A3, m+1 for B3): ``arith.divisible_terms`` reads
    them off the side's decomposition by arith's ``_form``.  A ``modulus``
    compares both sides modulo it.
    A None index is unused: r counts as 0, and a failure's inputs (``labels``
    first, when given) leave it out.
    """

    __slots__ = ()

    def sides(self):
        """(k, r, sides) per (k, r) in sweep order: the left side and then each
        right term as (c, step, offset), read at step*n + offset for n =
        0..n_max; the left side's c is 1."""
        for k in self.ks:
            for r in self.residues:
                (a, b), terms = self.terms(k, r)
                yield k, r, [(c, ai * self.base, ai * (r or 0) + bi)
                             for c, ai, bi in ((1, a, b), *terms)]

    def extent(self, n_max: int) -> int | None:
        """The largest argument a sweep to n_max reads, the top of its highest
        side; None when it reads none.  The walk over (k, r) in sweep order
        stops at the first side past SWEEP_MAX_BITS bits and gives its top,
        so a huge k_max builds no power much past the ceiling."""
        top = None
        for _, _, sides in self.sides() if n_max >= 0 else ():
            top = max(top or 0, *(step * n_max + offset for _, step, offset in sides))
            if top.bit_length() > SWEEP_MAX_BITS:
                break
        return top

    def skipped(self, r: int | None, n_max: int) -> range:
        """The n in 0..n_max of residue r whose value ``coprime_to`` divides, if any."""
        if self.coprime_to is None:
            return range(0)
        return arith.divisible_terms(self.kind, self.base, r or 0, self.coprime_to,
                                     n_max + 1)

    def count(self, n_max: int) -> int:
        """The instances a sweep to n_max checks, found without evaluating
        any side: n = 0..n_max for every (k, r), less the ``skipped`` ones."""
        if n_max < 0:
            return 0
        return len(self.ks) * sum(n_max + 1 - len(self.skipped(r, n_max))
                                  for r in self.residues)


def _keep(kept: list, lhs: list, rhs: list, failure) -> int:
    """Every report's one rule: the number of positions where the value lists
    ``lhs`` and ``rhs`` differ.  ``failure(i)`` gives i's (key, inputs), the key
    unique in its report and growing with i; ``kept`` holds the report's first
    MAX_FAILURES failures in key order as (key, Failure), and never more."""
    if lhs == rhs:
        return 0
    bad = list(compress(range(len(lhs)), map(ne, lhs, rhs)))
    for i in bad:
        key, inputs = failure(i)
        if len(kept) == MAX_FAILURES and key > kept[-1][0]:
            break  # no later position fits either
        del kept[MAX_FAILURES - 1:]
        insort(kept, (key, Failure(inputs, lhs[i], rhs[i])))
    return len(bad)


def _compare(rel: Relation, position: int, n_max: int, kept: list) -> int:
    """The number of failing instances of ``rel``, the relation at ``position``
    in its report, each kept by ``_keep`` under the key (position, e, n), e
    the index of the (k, r) in sweep order.

    The sides of up to _KS_PER_CALL ks at one residue are read in one call
    of ``arith.progression_counts``, which sizes its windows by the number
    of sides, and each window is split back per k."""
    residues = len(rel.residues)
    skipped = [rel.skipped(r, n_max) for r in rel.residues]
    walk = enumerate(rel.sides())
    failed = 0
    # the (k, r) of _KS_PER_CALL ks at every residue, walked once, in sweep order
    for chunk in iter(lambda: list(islice(walk, _KS_PER_CALL * residues)), []):
        for at_r in range(residues):
            plan, sides = [], []
            for e, (k, r, k_sides) in chunk[at_r::residues]:
                labels = {**(rel.labels or {}),
                          **{key: v for key, v in (("k", k), ("r", r)) if v is not None}}
                plan.append((e, labels, [c for c, _, _ in k_sides[1:]]))
                sides += [(step, offset) for _, step, offset in k_sides]
            lo = 0
            for values in arith.progression_counts(rel.kind, sides, n_max + 1):
                at = 0
                for e, labels, coefficients in plan:
                    lhs = values[at]
                    rhs = [0] * len(lhs)
                    for c, terms in zip(coefficients, values[at + 1:]):
                        rhs = map(add, rhs, map(mul, repeat(c), terms))
                    rhs = list(rhs)
                    at += 1 + len(coefficients)
                    if rel.modulus is not None:
                        lhs = [v % rel.modulus for v in lhs]
                        rhs = [v % rel.modulus for v in rhs]
                    # the n that ``skipped`` holds are not checked: their sides are made equal
                    skip = skipped[at_r]
                    for n in skip[bisect_left(skip, lo):bisect_left(skip, lo + len(lhs))]:
                        rhs[n - lo] = lhs[n - lo]
                    failed += _keep(kept, lhs, rhs, lambda i: (
                        (position, e, lo + i), {**labels, "n": lo + i}))
                lo += len(values[0])
                # let the window go before the next one is sieved
                values = lhs = rhs = None
    return failed


def _sweeps(params: dict, n_max: int, groups) -> list[IdentityReport]:
    """One timed report per group of relations, over every instance of its
    relations in order; each report's seconds run from the end of the one
    before it.  Before any is swept, a relation whose ``extent`` is past
    SWEEP_MAX_BITS bits, and then groups of more than SWEEP_MAX_INSTANCES
    instances in all, are refused with ValueError: a family as a whole.

    The instance count is Relation.count, so a sweep that checks nothing
    reads no value.  ``_compare`` reads the sides from
    ``arith.progression_counts``, looked up when called, as it looks up the
    prime-power rules of ``arith._PROGRESSIONS``, so a tracer's or a test's
    rebinding of either reaches every sweep.  ``_keep`` keeps the failures
    in (relation, k, r, n) order.  Private, so a tracer wrapping public
    functions charges the work to the check_* function that asked for it."""
    started = time.perf_counter()
    for rel in chain.from_iterable(groups):
        bits = (rel.extent(n_max) or 0).bit_length()
        if bits > SWEEP_MAX_BITS:
            raise ValueError(f"{rel.family} reads an argument of {bits} bits, past the "
                             f"sweep ceiling of {SWEEP_MAX_BITS} bits")
    counts = [sum(rel.count(n_max) for rel in relations) for relations in groups]
    if sum(counts) > SWEEP_MAX_INSTANCES:
        raise ValueError(f"{', '.join(relations[0].family for relations in groups)} would "
                         f"check {sum(counts)} instances, past the sweep ceiling of "
                         f"{SWEEP_MAX_INSTANCES} instances")
    reports = []
    for relations, checked in zip(groups, counts):
        kept = []
        failed = sum(_compare(rel, position, n_max, kept)
                     for position, rel in enumerate(relations if checked else ()))
        reports.append(_report(relations[0].family, params, checked, kept, failed, started))
        started = time.perf_counter()
    return reports


def _sweep(params: dict, n_max: int, *relations: Relation) -> IdentityReport:
    """One timed report over every instance of the relations, in order: ``_sweeps``."""
    return _sweeps(params, n_max, [relations])[0]


def _report(family: str, params: dict, checked: int, kept: list, failed: int,
            started: float) -> IdentityReport:
    """The report of ``failed`` of ``checked`` instances, ``kept`` by ``_keep``."""
    return IdentityReport(family, params, checked, [f for _, f in kept],
                          time.perf_counter() - started, failed - len(kept))


def _exact(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} not divisible by {denominator}")
    return q


def _A3_terms(p: int, coprime: bool):
    """``Relation.terms`` of check_A3_relations at p (r is unused)."""
    one_mod_3 = p % 3 == 1
    base = p if one_mod_3 else p * p

    def terms(k, r):
        e = k if one_mod_3 else 2 * k
        step = p**e
        lhs = (step, _exact(2 * step - 2, 3))
        if coprime:
            return lhs, ((_exact(p ** (e + 1) - 1, p - 1), 1, 0),)
        return lhs, ((_exact(step - 1, base - 1), base, _exact(2 * base - 2, 3)),
                     (-_exact(step - base, base - 1), 1, 0))
    return terms


def _B3_terms(p: int, coprime: bool):
    """``Relation.terms`` of check_B3_relations at p (r is unused)."""
    p2 = p * p

    def terms(k, r):
        step = p**k
        sign = (-1) ** k
        lhs = (step, step - 1)
        if coprime:
            if p == 3:
                c = 9**k
            elif p % 3 == 1:
                c = _exact(p ** (2 * (k + 1)) - 1, p2 - 1)
            else:
                c = _exact(p ** (2 * k + 2) + sign, p2 + 1)
            return lhs, ((c, 1, 0),)
        if p % 3 == 1:
            return lhs, ((_exact(p ** (2 * k) - 1, p2 - 1), p, p - 1),
                         (-_exact(p ** (2 * k) - p2, p2 - 1), 1, 0))
        return lhs, ((_exact(p ** (2 * k) - sign, p2 + 1), p, p - 1),
                     (_exact(p ** (2 * k) + sign * p2, p2 + 1), 1, 0))
    return terms


def _relation(kind: str, terms, p: int, k_max: int, n_max: int,
              coprime: bool) -> IdentityReport:
    """One variant of a relation theorem.  The coprime one holds where p does
    not divide the progression value of m, and B3's at p = 3 for every m."""
    if k_max < 0:
        raise ValueError("--kmax must be >= 0")
    variant = "coprime" if coprime else "general"
    return _sweep({"p": p, "k_max": k_max, "n_max": n_max, "variant": variant}, n_max,
                  Relation(f"{kind}-relation-{variant}-p{p}", kind, terms(p, coprime),
                           range(k_max + 1), coprime_to=p if coprime and p != 3 else None,
                           labels={"p": p}))


def _residues(kind: str, terms, classes, k_max: int, n_max: int) -> list[IdentityReport]:
    """The coprime relation at each p, swept over m = p*n + r for r in its classes."""
    if k_max < 0:
        raise ValueError("--kmax must be >= 0")
    params = {"k_max": k_max, "n_max": n_max}
    return _sweeps(params, n_max, [(Relation(f"{kind}-residues-{p}", kind, terms(p, True),
                                             range(k_max + 1), residues=residues, base=p),)
                                   for p, residues in classes])


def check_a3_even_power(p: int, k_max: int, n_max: int) -> IdentityReport:
    """a3(p^k*n + (p^k-1)/3) == a3(n) for p prime, p = 2 mod 3, k even."""
    if not arith.is_prime(p) or p % 3 != 2:
        raise ValueError(f"p must be a prime congruent to 2 mod 3, got {p}")
    if k_max < 2:
        raise ValueError("--kmax must be >= 2")
    return _sweep({"p": p, "k_max": k_max, "n_max": n_max}, n_max, Relation(
        f"a3-even-power-p{p}", "a3",
        lambda k, r: ((p**k, _exact(p**k - 1, 3)), ((1, 1, 0),)),
        ks=range(2, k_max + 1, 2), labels={"p": p}))


def check_baruah_nath(k_max: int, n_max: int) -> list[IdentityReport]:
    """The three pair-count families with power-of-two arguments, k >= 1.

    BN-1: A3(2^(2k+2)*n + 2(2^(2k)-1)/3) == (2^(2k+2)-1)/3 * A3(4n).
    BN-2: A3(2^(2k+2)*n + 2(2^(2k+2)-1)/3)
            == (2^(2k+2)-1)/3 * A3(4n+2) - (2^(2k+2)-4)/3 * A3(n).
    BN-3: A3(2^(2k+1)*n + (5*2^(2k)-2)/3) == (2^(2k+1)-1) * A3(2n+1).
    """
    if k_max < 1:
        raise ValueError("--kmax must be >= 1")
    params = {"k_max": k_max, "n_max": n_max}
    families = (
        lambda k, r: ((4 ** (k + 1), _exact(2 * (4**k - 1), 3)),
                      ((_exact(4 ** (k + 1) - 1, 3), 4, 0),)),
        lambda k, r: ((4 ** (k + 1), _exact(2 * (4 ** (k + 1) - 1), 3)),
                      ((_exact(4 ** (k + 1) - 1, 3), 4, 2),
                       (-_exact(4 ** (k + 1) - 4, 3), 1, 0))),
        lambda k, r: ((2 * 4**k, _exact(5 * 4**k - 2, 3)), ((2 * 4**k - 1, 2, 1),)),
    )
    return _sweeps(params, n_max, [(Relation(f"BN-{i}", "A3", terms, range(1, k_max + 1)),)
                                   for i, terms in enumerate(families, 1)])


def check_lin(n_max: int) -> IdentityReport:
    """A3(8n+6) == 7 * A3(2n+1)."""
    return _sweep({"n_max": n_max}, n_max,
                  Relation("lin", "A3", lambda k, r: ((8, 6), ((7, 2, 1),))))


def check_A3_relations(p: int, k_max: int, n_max: int,
                       coprime_variant: bool = False) -> IdentityReport:
    """The two pair-count relation theorems at a prime p != 3.

    General variant (all n): a three-term relation whose step is p^k for
    p = 1 mod 3 and p^(2k) for p = 2 mod 3.  Coprime variant (p not
    dividing 3n+2): the relation collapses to a single multiplier
    (p^(e+1)-1)/(p-1).
    """
    if not arith.is_prime(p) or p == 3:
        raise ValueError(f"p must be a prime other than 3, got {p}")
    return _relation("A3", _A3_terms, p, k_max, n_max, coprime_variant)


def check_A3_residue_families(k_max: int, n_max: int) -> list[IdentityReport]:
    """Printed residue-class corollaries of the coprime pair-count relation.

    For p = 5 the argument 5n+r must keep 3(5n+r)+2 prime to 5, which
    excludes r = 1; for p = 7 it excludes r = 4.
    """
    return _residues("A3", _A3_terms, ((5, (0, 2, 3, 4)), (7, (0, 1, 2, 3, 5, 6))),
                     k_max, n_max)


def check_b3_power_families(k_max: int, n_max: int) -> list[IdentityReport]:
    """The three printed triple-count families at moduli 3^k and 2^(k+1), k >= 1.

    B3-1: B3(3^k*n + 3^k - 1) == 3^(2k) * B3(n), the coprime relation at p = 3.
    B3-2: B3(2^(k+1)*n + 2^k - 1) == (2^(2k+2)+(-1)^k)/5 * B3(2n).
    B3-3: B3(2^(k+1)*n + 2^(k+1) - 1)
            == (2^(2k+2)+(-1)^k)/5 * B3(2n+1) + (2^(2k+2)-4(-1)^k)/5 * B3(n),
          the general relation at p = 2, taken at k+1.
    """
    if k_max < 1:
        raise ValueError("--kmax must be >= 1")
    params = {"k_max": k_max, "n_max": n_max}
    general_2 = _B3_terms(2, coprime=False)
    families = (_B3_terms(3, coprime=True),
                lambda k, r: ((2 ** (k + 1), 2**k - 1),
                              ((_exact(2 ** (2 * k + 2) + (-1) ** k, 5), 2, 0),)),
                lambda k, r: general_2(k + 1, r))
    return _sweeps(params, n_max, [(Relation(f"B3-{i}", "B3", terms, range(1, k_max + 1)),)
                                   for i, terms in enumerate(families, 1)])


def check_B3_relations(p: int, k_max: int, n_max: int,
                       coprime_variant: bool = False) -> IdentityReport:
    """The two triple-count relation theorems at a prime p.

    General variant: three-term relation for p != 3, with signs depending
    on the residue of p mod 3.  Coprime variant (p not dividing n+1, plus
    the unconditional p = 3 branch): a single multiplier.
    """
    if not arith.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not coprime_variant and p == 3:
        raise ValueError("the general three-term relation excludes p = 3")
    return _relation("B3", _B3_terms, p, k_max, n_max, coprime_variant)


def check_B3_residue_families(k_max: int, n_max: int) -> list[IdentityReport]:
    """Printed residue-class corollaries of the coprime triple-count relation.

    The substitution n -> 5n+r (resp. 7n+r) needs p not dividing n+1, which
    excludes r = 4 for p = 5 and r = 6 for p = 7.
    """
    return _residues("B3", _B3_terms, ((5, (0, 1, 2, 3)), (7, (0, 1, 2, 3, 4, 5))),
                     k_max, n_max)


def check_xia_congruences(n_max: int) -> IdentityReport:
    """A3(8n+4) == 0 mod 4 and A3(16n+4) == 0 mod 8 for all n."""
    return _sweep({"n_max": n_max}, n_max, *(
        Relation("xia-congruence", "A3", lambda k, r, a=a: ((a, 4), ()),
                 modulus=modulus, labels={"modulus": modulus})
        for a, modulus in ((8, 4), (16, 8))))


def check_xia_conjecture(p: int, j: int, alpha_max: int, n_max: int) -> IdentityReport:
    """A3(4^(k0(a+1))*n + (2^(2k0(a+1)-1)-2)/3) == 0 mod p^j, k0 = p^j(p-1)/2.

    The argument 3N+2 factors as 2^(e-1)*(6n+1) with e = 2*k0*(alpha+1), so
    the value equals (2^e-1)/3 * sigma(6n+1), and sigma(6n+1) is A3(4n), as
    3*4n+2 = 2(6n+1).  The check runs modularly: 2^e is reduced mod 3p^j,
    which recovers (2^e-1)/3 mod p^j without ever building the power.
    Instances whose direct argument 3N+2 stays below 2^63 (so e <= 63) are
    also evaluated outright against the modular residue.  One sieve over 6n+1
    reads A3(4n) and every direct side; each window walks the alphas, 2^e
    carried by one product mod 3p^j each, failures kept in (alpha, n, path)
    order.  Past XIA_MAX_BITS bits of p^j or SWEEP_MAX_INSTANCES, it refuses.
    """
    if p == 2:
        raise ValueError(
            "p = 2 unsupported: the Euler-theorem step needs 2 invertible mod p^(j+1)")
    if not arith.is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    for flag, value, least in (("j", j, 1), ("alphamax", alpha_max, 0), ("nmax", n_max, 0)):
        if value < least:
            raise ValueError(f"--{flag} must be >= {least}")
    # j * (bits of p, less one) bounds p^j's bits from below without building it
    if j * (p.bit_length() - 1) > XIA_MAX_BITS or (pj := p**j).bit_length() > XIA_MAX_BITS:
        raise ValueError(f"p^j = {p}^{j} is past this check's ceiling of {XIA_MAX_BITS} bits")
    k0 = pj * (p - 1) // 2
    modulus = 3 * pj
    family = f"xia-conjecture-p{p}-j{j}"
    # each e = 2*k0*(alpha+1) <= 63 has a direct side, read where 3N+2 =
    # 2^(e-1)*(6n+1) < 2^63: at the n with 6n+1 < 2^(64-e)
    es = range(2 * k0, 64, 2 * k0)[:alpha_max + 1]
    tops = [min(n_max + 1, ((1 << 64 - e) + 4) // 6) for e in es]
    checked = (alpha_max + 1) * (n_max + 1) + sum(tops)
    if checked > SWEEP_MAX_INSTANCES:
        raise ValueError(f"{family} would check {checked} instances, past the sweep "
                         f"ceiling of {SWEEP_MAX_INSTANCES} instances")
    started = time.perf_counter()
    step = pow(2, 2 * k0, modulus)
    # A3(4n), then A3 at each direct argument 2^e*n + (2^(e-1)-2)/3
    sides = [(4, 0), *((1 << e, ((1 << e - 1) - 2) // 3) for e in es)]
    inputs, kept, failed, lo = {"p": p, "j": j}, [], 0, 0
    for sigma, *direct in arith.progression_counts("A3", sides, n_max + 1):
        sigma = [v % pj for v in sigma]
        power = 1
        for alpha in range(alpha_max + 1):
            # 2^e mod 3p^j: 3 | 2^e - 1 because e is even, and 3 | modulus keeps that visible
            power = power * step % modulus
            factor_mod = (power - 1) % modulus // 3 % pj
            value_mod = [factor_mod * v % pj for v in sigma]
            failed += _keep(kept, value_mod, [0] * len(sigma), lambda i: (
                (alpha, lo + i, 0), {**inputs, "alpha": alpha, "n": lo + i, "path": "modular"}))
            if alpha < len(direct):
                # a window that starts past the side's last n reads none of it
                top = max(0, tops[alpha] - lo)
                failed += _keep(kept, [v % pj for v in direct[alpha][:top]], value_mod[:top],
                                lambda i: ((alpha, lo + i, 1), {**inputs, "alpha": alpha,
                                                                "n": lo + i, "path": "direct"}))
        lo += len(sigma)
        # let the window go before the next one is sieved
        sigma = direct = None
    return _report(family, {"p": p, "j": j, "k0": k0, "alpha_max": alpha_max, "n_max": n_max},
                   checked, kept, failed, started)


def cross_validate(n_max: int, brute_cap: int = routes.DEFAULT_BRUTE_CAP) -> IdentityReport:
    """Per-n agreement of every registered route with the closed form, for
    every kind.

    Each route's table comes from ``routes.table_values``, the closed form's
    as one sieve per kind, and is compared with the closed form's as a whole,
    failures kept in (kind, n, route) registry order.  Series and Lambert run
    for every n < n_max, brute force while n is within its cap.  An n_max
    past the series route's ceiling is refused before any lane is built.
    """
    if n_max < 1:
        raise ValueError("--nmax must be >= 1")
    if n_max > routes.MAX_SERIES_ORDER:
        raise ValueError(f"--nmax must be at most {routes.MAX_SERIES_ORDER}, the series "
                         f"route's ceiling, got {n_max}")
    cfg = routes.Config(order=n_max, brute_cap=brute_cap)
    sizes = {method: min(n_max, brute_cap + 1) if method == "brute" else n_max
             for method in routes.METHODS if method != "formula"}
    started = time.perf_counter()
    kept, failed = [], 0
    for at_kind, kind in enumerate(routes.KINDS):
        reference = routes.table_values(kind, "formula", n_max, cfg)
        for at_route, (method, size) in enumerate(sizes.items()):
            failed += _keep(kept, routes.table_values(kind, method, size, cfg),
                            reference[:size], lambda n: (
                                (at_kind, n, at_route), {"kind": kind, "n": n, "route": method}))
    return _report("cross-validate", {"n_max": n_max, "brute_cap": brute_cap},
                   len(routes.KINDS) * sum(sizes.values()), kept, failed, started)


def structural_reports(n_max: int) -> list[IdentityReport]:
    """One single-instance report per structural check of the series and
    Lambert routes: the q-split, the k^2 kernel and the vanishing pair-fold
    cross term, at order min(n_max, 500), at least 2."""
    from . import lambert, series  # here, so that no other family loads either engine

    order = max(2, min(n_max, 500))
    reports = []
    for family, params, check in (
            ("q-split", {"order": order}, lambda: series.verify_q_split(order)),
            ("square-kernel", {"order": 100}, lambda: series.square_kernel_check(100)),
            ("pair-fold-cross-term", {"order": order},
             lambda: not any(lambert.pair_fold_cross_term(order).coeffs))):
        started = time.perf_counter()
        failures = [] if check() else [Failure(params, 0, 1)]
        reports.append(IdentityReport(family, params, 1, failures, time.perf_counter() - started))
    return reports


# --- the family registry and its two batteries, read by cli and the tests ---
# run_family looks each check up by name when called, so a tracer's rebinding reaches it

Family = namedtuple("Family", ("check", "defaults"))
Family.__doc__ = "A ``verify`` family: the check it runs, and its options' defaults in order."


def _relation_family(check: str, coprime: bool) -> Family:
    return Family(check, {"p": 5, "kmax": 4, "nmax": 200, "coprime_variant": coprime})


FAMILIES = {
    "a3-even-power": Family("check_a3_even_power", {"p": 2, "kmax": 4, "nmax": 200}),
    "BN": Family("check_baruah_nath", {"kmax": 5, "nmax": 200}),
    "lin": Family("check_lin", {"nmax": 500}),
    "relation-general": _relation_family("check_A3_relations", False),
    "relation-coprime": _relation_family("check_A3_relations", True),
    "A3-residues": Family("check_A3_residue_families", {"kmax": 4, "nmax": 200}),
    "B3-ids": Family("check_b3_power_families", {"kmax": 5, "nmax": 200}),
    "B3-relation-general": _relation_family("check_B3_relations", False),
    "B3-relation-coprime": _relation_family("check_B3_relations", True),
    "B3-residues": Family("check_B3_residue_families", {"kmax": 4, "nmax": 200}),
    "xia-congruence": Family("check_xia_congruences", {"nmax": 1000}),
    "xia-conjecture": Family("check_xia_conjecture",
                             {"p": 3, "j": 1, "alphamax": 1, "nmax": 50}),
    "cross-validate": Family("cross_validate",
                             {"nmax": 200, "brute_cap": routes.DEFAULT_BRUTE_CAP}),
    "structural": Family("structural_reports", {"nmax": 200}),
}


def run_family(name: str, options: dict) -> list[IdentityReport]:
    """The reports of family ``name``; ``options`` that are not None replace
    its defaults.  ``brute_cap`` is run-wide: a family that does not take it
    drops it.  An unknown name, any other option the family does not take, a
    negative ``nmax``, a ``brute_cap`` past ``routes.MAX_BRUTE_CAP`` or a
    sweep that checks no instance is a ``routes.UsageError``."""
    family = FAMILIES.get(name)
    if family is None:
        known = ", ".join(sorted(FAMILIES))
        raise routes.UsageError(f"unknown family {name!r}; known families: {known}")
    options = {option: value for option, value in options.items() if value is not None}
    for option in options:
        if option not in family.defaults and option != "brute_cap":
            raise routes.UsageError(f"family {name!r} takes no --{option}")
    if options.get("nmax", 0) < 0:
        raise routes.UsageError("--nmax must be >= 0")
    if "brute_cap" in options:  # refused as the CLI does, even where the family drops it
        routes.Config(brute_cap=options["brute_cap"])
    args = [options.get(option, default) for option, default in family.defaults.items()]
    reports = globals()[family.check](*args)
    reports = reports if isinstance(reports, list) else [reports]
    for report in reports:
        if report.checked == 0:
            raise routes.UsageError(f"{report.family} checked no instance; raise --nmax")
    return reports


def selfcheck_battery(n_max: int, brute_cap: int) -> list[tuple[str, dict]]:
    """``core3 selfcheck``: (family, options) in run order, every family a
    registered verify name.  An n_max below 1 is refused here, before any
    family runs: at n_max = 0 the coprime sweep at p = 2 checks nothing."""
    if n_max < 1:
        raise routes.UsageError("--nmax must be >= 1")
    n = min(n_max, 200)
    return [
        ("cross-validate", {"nmax": n_max, "brute_cap": brute_cap}),
        ("structural", {"nmax": n_max}),
        *(("a3-even-power", {"p": p, "kmax": 4, "nmax": n}) for p in (2, 5)),
        ("BN", {"kmax": 3, "nmax": n}),
        ("lin", {"nmax": 500}),
        *((f"relation-{variant}", {"p": p, "kmax": 3, "nmax": n})
          for p in (2, 5, 7) for variant in ("general", "coprime")),
        ("A3-residues", {"kmax": 2, "nmax": n}),
        ("B3-ids", {"kmax": 3, "nmax": n}),
        *((f"B3-relation-{variant}", {"p": p, "kmax": 3, "nmax": n})
          for p in (2, 5, 7) for variant in ("general", "coprime")),
        ("B3-relation-coprime", {"p": 3, "kmax": 3, "nmax": n}),
        ("B3-residues", {"kmax": 2, "nmax": n}),
        ("xia-congruence", {"nmax": 1000}),
        *(("xia-conjecture", {"p": p, "j": 1, "alphamax": 1, "nmax": 50}) for p in (3, 5)),
    ]


def wide_battery(k_max: int, n_max: int, brute_cap: int) -> list[tuple[str, dict]]:
    """``core3 selfcheck --wide``: the same families at wider ranges and more
    primes, as (family, options) in run order.  Bounds below 1 are refused
    here, before any family runs; at k_max, n_max >= 1 every entry checks an
    instance, since each coprime sweep holds m = 0 and m = 1 and no prime
    divides the progression value at both (2 and 5 for A3, 1 and 2 for B3)."""
    if k_max < 1:
        raise routes.UsageError("--kmax must be >= 1")
    if n_max < 1:
        raise routes.UsageError("--nmax must be >= 1")
    wide = {"kmax": k_max, "nmax": n_max}
    return [
        ("cross-validate", {"nmax": 2000, "brute_cap": brute_cap}),
        *(("a3-even-power", {"p": p, "kmax": 2 * k_max, "nmax": n_max}) for p in (2, 5, 11)),
        ("BN", {"kmax": k_max + 1, "nmax": n_max}),
        ("lin", {"nmax": 500}),
        *((f"{counter}relation-{variant}", {"p": p, **wide}) for p in (2, 5, 7, 11, 13)
          for counter in ("", "B3-") for variant in ("general", "coprime")),
        ("B3-relation-coprime", {"p": 3, **wide}),
        ("A3-residues", wide),
        ("B3-ids", {"kmax": k_max + 1, "nmax": n_max}),
        ("B3-residues", wide),
        ("xia-congruence", {"nmax": 1000}),
        *(("xia-conjecture", {"p": p, "j": j, "alphamax": 1, "nmax": 50})
          for p in (3, 5, 7) for j in (1, 2)),
    ]
