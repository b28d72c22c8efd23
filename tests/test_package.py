"""The package's public names: a star import succeeds and brings in every
name of rechml.__all__, and no name there is left dangling, and README.md names every one."""

from pathlib import Path
import re

import rechml


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from rechml import *", namespace)
    assert len(set(rechml.__all__)) == len(rechml.__all__)
    for name in rechml.__all__:
        assert namespace[name] is getattr(rechml, name), name


def test_readme_names_every_public_name():
    # a name counts when it occurs in a code span or block of README.md
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`]+`", text, re.DOTALL))
    named = set(re.findall(r"\w+", code))
    assert [name for name in rechml.__all__ if name not in named] == []
