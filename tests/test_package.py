import types

import ldpkit


def test_export_list_is_the_public_api():
    # every exported name resolves, and every public non-module attribute is exported,
    # so a deleted function cannot leave a stale export behind
    assert len(set(ldpkit.__all__)) == len(ldpkit.__all__)
    for name in ldpkit.__all__:
        assert hasattr(ldpkit, name), name
    public = {name for name, value in vars(ldpkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(ldpkit.__all__) == public
