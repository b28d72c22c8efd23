"""The package's public names: a star import succeeds and brings in every
name of rechml.__all__, and no name there is left dangling."""

import rechml


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from rechml import *", namespace)
    assert len(set(rechml.__all__)) == len(rechml.__all__)
    for name in rechml.__all__:
        assert namespace[name] is getattr(rechml, name), name
