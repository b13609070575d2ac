import chirplab


def test_every_export_resolves_once():
    names = chirplab.__all__
    assert len(names) == len(set(names)), sorted(name for name in set(names) if names.count(name) > 1)
    assert [name for name in names if not hasattr(chirplab, name)] == []
