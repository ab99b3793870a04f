import dataclasses
import itertools

import numpy as np
import pytest

from caylex import geometry, verify


def test_suite_names_cover_registry():
    assert set(verify.SUITE_NAMES) == set(verify._SUITES)


# checks per suite; seed-independent, so a dropped or added check shows
CHECKED = {"norms": 1200, "cocycle": 300, "lemma31": 5, "lemma41": 1200,
           "lemma52": 1100, "prop53-holder": 900, "lemma61": 101000,
           "prop62": 201, "maxprinciple": 31}


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_each_suite_passes(name):
    res = verify.run_suite(name, seed=0)
    assert res.passed, res.failures[:3]
    assert res.checked > 0
    assert res.checked == CHECKED[name]


def test_parametrised_suites_on_other_groups():
    """The suites behind the lemma61 and pairing commands hold on groups
    outside their default families, with a fixed t and other exponents."""
    groups = ["Z^1", "Z^4", "F_3"]
    results = [verify.suite_lemma61(5, 60, 1000, groups),
               verify.suite_lemma61(5, 60, 1000, groups, t=4.0),
               verify.suite_lemma52(5, 60, groups),
               verify.suite_prop53_holder(5, 60, groups, ps=(1.25, 2.0, 4.0))]
    for res in results:
        assert res.passed, (res.name, res.failures[:3])
    assert [r.checked for r in results] == [1060, 1060, 66, 180]
    assert results[0].stats["min_margin"] >= 0.0


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("bogus", 0)


def test_lemma31_reads_beta_itself(monkeypatch):
    """The beta bound is checked on the term's function, not on the
    seminorm recorded beside it."""
    real = verify.dirichlet.null_sequence
    recorded = []

    def scaled(scan):
        terms = real(scan)
        recorded.extend(terms)
        return [dataclasses.replace(t, beta=10.0 * t.beta) for t in terms]

    monkeypatch.setattr(verify.dirichlet, "null_sequence", scaled)
    res = verify.suite_lemma31(0)
    assert res.checked == CHECKED["lemma31"]
    want = [f"beta_{t.n} seminorm {10.0 * t.beta_seminorm:.3e} > 1/n"
            for t in recorded if 10.0 * t.beta_seminorm > 1.0 / t.n]
    assert want and [f for f in res.failures if f.startswith("beta_")] == want


def test_per_suite_seeds_differ():
    seeds = {verify._suite_seed(1, n) for n in verify.SUITE_NAMES}
    assert len(seeds) == len(verify.SUITE_NAMES)


def test_results_independent_of_worker_count():
    names = ["norms", "cocycle", "lemma41"]
    serial = verify.run_suites(names, seed=1, workers=1)
    parallel = verify.run_suites(names, seed=1, workers=3)
    assert [r.line() for r in serial] == [r.line() for r in parallel]


def test_suite_reports_counterexample_on_failure():
    """A deliberately broken input must surface in the summary line."""
    res = verify.SuiteResult("demo", 10, ["witness: x=(1,0)"])
    assert not res.passed
    assert "FAIL" in res.line() and "witness" in res.line()


@pytest.mark.parametrize("workers,cpus,started",
                         [(64, 8, [2]), (2, 8, [2]), (64, 1, []), (64, None, [])])
def test_worker_count_is_clamped(monkeypatch, workers, cpus, started):
    """The pool gets min(workers, suites, CPUs) processes; no pool for 1."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    names = ["lemma31", "maxprinciple"]
    results = verify.run_suites(names, seed=1, workers=workers)
    assert seen == started
    assert [r.name for r in results] == names


# Suites check their samples in stacks; a failure must still name its
# sample, in sample order.  Chosen samples carry a sentinel value on the
# last ball vertex, and a stubbed operator fails exactly the stack rows
# that carry it.  The samples span several stacks of every ball.
SENTINEL = 7.0
CHOSEN = [0, 3, 10, 41, 97, 130, 199]
NAMES = ["Z^2", "Z^3", "F_2", "H3"]


def _mark_samples(monkeypatch, draws_per_sample=1):
    """Put the sentinel into the first draw of each chosen sample."""
    real = verify.random_ball_function
    calls = itertools.count()

    def marked(ball, rng, *args, **kwargs):
        f = real(ball, rng, *args, **kwargs)
        i, k = divmod(next(calls), draws_per_sample)
        if i in CHOSEN and k == 0:
            f.values[-1] = SENTINEL
        return f

    monkeypatch.setattr(verify, "random_ball_function", marked)


def _marked(f):
    return f.values[..., -1] == SENTINEL


def test_norms_failures_in_sample_and_p_order(monkeypatch):
    _mark_samples(monkeypatch)
    real = verify.norms

    def stub(f, p):
        rep = real(f, p)
        if p == 2.0:
            return dataclasses.replace(
                rep, dp_norm=np.where(_marked(f), rep.dp_norm + 1.0, rep.dp_norm))
        if p == 3.0:
            return dataclasses.replace(
                rep, dp_seminorm=np.where(_marked(f), 0.0, rep.dp_seminorm))
        return rep

    monkeypatch.setattr(verify, "norms", stub)
    want = []
    for i in CHOSEN:
        name = NAMES[i % 4]
        want += [f"norm identity: {name} sample {i} p=2.0",
                 f"norm identity: {name} sample {i} p=3.0",
                 f"modulus contraction: {name} sample {i} p=3.0"]
    assert verify.suite_norms(3).failures == want


def test_lemma41_failures_in_sample_order(monkeypatch):
    _mark_samples(monkeypatch)
    real = verify.norms

    def stub(f, p):
        rep = real(f, p)
        return dataclasses.replace(
            rep, dp_norm=np.where(_marked(f), -1.0, rep.dp_norm))

    monkeypatch.setattr(verify, "norms", stub)
    want = [f"word-length bound: {NAMES[i % 4]} sample {i}" for i in CHOSEN]
    assert verify.suite_lemma41(3).failures == want


def test_lemma52_failures_in_sample_order(monkeypatch):
    _mark_samples(monkeypatch)
    real_pairing, real_via = verify.pairing, verify.harmonicity_via_pairing

    def stub(a, b):
        return real_pairing(a, b) + 1e9 * (_marked(a) | _marked(b))

    def flipped(alpha, domain):
        via, res = real_via(alpha, domain)
        return via != (SENTINEL in alpha.data.values()), res

    monkeypatch.setattr(verify, "pairing", stub)
    monkeypatch.setattr(verify, "harmonicity_via_pairing", flipped)
    want = []
    for i in CHOSEN:
        want.append(f"pairing identity: {NAMES[i % 4]} sample {i}")
        if i % 10 == 0:
            want.append(f"harmonicity disagreement: {NAMES[i % 4]} sample {i}")
    assert verify.suite_lemma52(3, n=200).failures == want


def test_prop53_failures_in_sample_and_p_order(monkeypatch):
    _mark_samples(monkeypatch, draws_per_sample=2)
    real = verify.pairing
    monkeypatch.setattr(verify, "pairing",
                        lambda a, b: real(a, b) + 1e9 * _marked(a))
    want = [f"Hoelder: {NAMES[i % 4]} sample {i} p={p}"
            for i in CHOSEN for p in (1.5, 2.0, 3.0)]
    res = verify.suite_prop53_holder(3, n=200)
    assert res.failures == want
    assert res.stats["holder_violations"] == len(want)


def test_lemma61_failures_in_sample_order(monkeypatch):
    _mark_samples(monkeypatch)
    real = geometry.lemma61_check

    def stub(f, t):
        res = real(f, t)
        return dataclasses.replace(res, margin=np.where(_marked(f), -1.0, res.margin))

    monkeypatch.setattr(geometry, "lemma61_check", stub)
    names = ["Z^2", "Z^3", "F_2"]
    want = [f"power estimate: {names[i % 3]} sample {i} t=2.5" for i in CHOSEN]
    res = verify.suite_lemma61(3, n=200, n_scalar=10, t=2.5)
    assert res.failures == want
    assert res.stats["violations"] == len(want)
