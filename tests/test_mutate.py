"""The mutation audit's site finder, without running a mutant: a renamed
target or a mutation that no longer parses shows up here."""

import ast
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_the_default_sites_are_listed_the_same_every_time():
    first, second = mutate.sites(mutate.DEFAULT_TARGETS), mutate.sites(mutate.DEFAULT_TARGETS)
    assert first and list(map(str, first)) == list(map(str, second))


def test_every_default_mutant_parses_and_changes_the_source():
    sources = {}
    for site in mutate.sites(mutate.DEFAULT_TARGETS):
        source = sources.setdefault(site.path, site.path.read_text())
        mutant = site.apply(source)
        assert mutant != source, site
        ast.parse(mutant, str(site.path))


def test_an_unknown_target_is_named():
    with pytest.raises(SystemExit) as exc:
        mutate.main(["--target", "information:no_such_function", "--list"])
    assert exc.value.code == "information:no_such_function: found 0 functions of that name"
