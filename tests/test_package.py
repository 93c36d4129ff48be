import ris_nfloc


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here, not
    # at a user's star import
    missing = [name for name in ris_nfloc.__all__ if not hasattr(ris_nfloc, name)]
    assert missing == []
