import pytest

from caylex import verify


def test_suite_names_cover_registry():
    assert set(verify.SUITE_NAMES) == set(verify._SUITES)


# checks per suite; seed-independent, so a dropped or added check shows
CHECKED = {"norms": 1200, "cocycle": 300, "lemma31": 5, "lemma41": 1200,
           "lemma52": 1100, "prop53-holder": 900, "lemma61": 101000,
           "prop62": 202, "maxprinciple": 31}


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
