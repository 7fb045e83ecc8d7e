"""Every command of the golden corpus prints what it printed when the
corpus was recorded (tests/golden_corpus.py)."""

import golden_corpus


def test_every_corpus_command_prints_its_recorded_output():
    expected = golden_corpus.load()
    actual = golden_corpus.record()
    assert [e[0] for e in actual] == [e[0] for e in expected], \
        "the command list changed; record the corpus again"
    for (argv, *want), (_, *got) in zip(expected, actual):
        assert got == want, "first command that differs: fsind " + \
            " ".join(argv)
