"""The package's exported names."""

import idkm


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from idkm import *", namespace)
    assert len(set(idkm.__all__)) == len(idkm.__all__)
    for name in idkm.__all__:
        assert namespace[name] is getattr(idkm, name)


def test_attention_is_exported_only_in_its_validated_layout():
    # pq.attention is soft_assign's raw k x m kernel; the package exports
    # the m x k AttentionMatrix path under its own name.
    assert "attention_matrix" in idkm.__all__
    assert "attention" not in idkm.__all__
    assert not hasattr(idkm, "attention")
