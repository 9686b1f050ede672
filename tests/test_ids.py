"""The test suite's own ids."""


def test_collected_ids_are_distinct_within_100_characters(collected_ids):
    """A report that cuts each id at 100 characters still tells every
    collected test apart."""
    by_prefix = {}
    for nodeid in collected_ids:
        by_prefix.setdefault(nodeid[:100], []).append(nodeid)
    assert len(collected_ids) > 600
    assert [ids for ids in by_prefix.values() if len(ids) > 1] == []
