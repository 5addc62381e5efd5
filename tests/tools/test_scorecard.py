"""The committed mutation scorecard (``docs/analysis.md``) against the
analyzers as they are: every mutant's patch still applies exactly once,
and ``repro lint --verify`` still adds the findings its static columns
record.  The dynamic columns are the CI ``scorecard`` job's (~17 min)."""

from tests.tools import scorecard


def test_every_mutant_patch_applies_exactly_once():
    for mutant in scorecard.MUTANTS:
        scorecard.patched(mutant, (scorecard.ROOT / mutant.path).read_text())


def test_the_static_columns_are_what_the_analyzers_report():
    committed = scorecard.table_rows(scorecard.DOC.read_text())
    assert list(committed) == [m.name for m in scorecard.MUTANTS]
    derived = {
        name: {check: scorecard.SHORT[severity] for check, severity in row.items()}
        for name, row in scorecard.static_rows().items()
    }
    assert derived == committed
