"""The simplification registry's invariant, recomputed from the tables."""


def expected_registry(space) -> dict:
    """registry key -> {DelayList: (table, answer)} over the positive and
    negative literals of every unfalsified delay list of every answer in
    the space's tables."""
    expected: dict = {}
    for table in space.tables.values():
        for answer in table.answers.values():
            for dl in answer.delay_lists:
                if dl.falsified:
                    continue
                for lit in dl.literals:
                    key = lit.registry_key
                    if key is not None:
                        expected.setdefault(key, {})[dl] = (table, answer)
    return expected


def assert_registry_exact(space) -> None:
    """The registry holds exactly the entries the live answers imply."""
    expected = expected_registry(space)
    stale = {key: [dl for dl in refs if dl not in expected.get(key, ())]
             for key, refs in space.backrefs.items()}
    stale = {key: dls for key, dls in stale.items() if dls}
    assert not stale, f"entries of dropped lists: {stale}"
    assert space.backrefs == expected
