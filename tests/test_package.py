import pseudo3d


def test_export_list_resolves_and_star_imports():
    assert len(pseudo3d.__all__) == len(set(pseudo3d.__all__))
    missing = [name for name in pseudo3d.__all__ if not hasattr(pseudo3d, name)]
    assert missing == []
    namespace: dict = {}
    exec("from pseudo3d import *", namespace)
    assert set(pseudo3d.__all__) <= set(namespace)
