"""Self-test of the mutation script ``tests/mutate.py``: its sample is fixed by
the module and the seed, and a mutant that a test was written for is killed."""

import mutate

BOOK_UNIT_TEST = ("tests/test_models.py::TestEstimate::"
                  "test_constrain_book_unit_regresses_price_less_book")


def test_the_sample_is_fixed_by_the_module_and_the_seed():
    assert mutate.sites("models") == mutate.sites("models")
    assert mutate.sample("models", 23, 3) == mutate.sample("models", 23, 3)


def test_the_constrained_book_unit_mutant_is_killed(tmp_path):
    """P + B in place of P - B in ``models._assemble_design``: the unparsed module
    passes the test written for it, and the mutant fails it."""
    path, source = mutate.mutant("models", None)
    lines = path.read_text(encoding="utf-8").splitlines()
    (site,) = [s for s in mutate.sites("models")
               if s.change == "- -> +" and lines[s.line - 1].strip() == 'y = y - col("B")[mask]']
    mutate.copy_checkout(tmp_path)
    copy = tmp_path / path.relative_to(mutate.ROOT)
    copy.write_text(source, encoding="utf-8")
    assert mutate.run_tests(tmp_path, [BOOK_UNIT_TEST]) == "passed"
    copy.write_text(mutate.mutant("models", site.index)[1], encoding="utf-8")
    assert mutate.run_tests(tmp_path, [BOOK_UNIT_TEST]) == "killed"
