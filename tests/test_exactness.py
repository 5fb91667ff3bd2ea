import pytest

from tests.conftest import digest_table, exactness


def test_corpus_matches_digest_table(corpus):
    got, table = corpus
    assert [case for case in got if got[case] != table.get(case)] == []
    assert [case for case in table if case not in got] == []


def test_unknown_fingerprint_is_named():
    fingerprint = exactness.fingerprint()[:-1] + ["# openblas no such build"]
    with pytest.raises(LookupError) as err:
        digest_table(fingerprint)
    assert str(err.value).splitlines()[1:-1] == fingerprint
