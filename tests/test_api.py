import importlib

import pytest

import levsketch

REMOVED = ("Partition", "sketch_matrix", "srht_apply", "stream_update")


def test_every_exported_name_resolves():
    missing = [name for name in levsketch.__all__ if not hasattr(levsketch, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(levsketch.__all__) == len(set(levsketch.__all__))


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_absent(name):
    assert name not in levsketch.__all__
    assert not hasattr(levsketch, name)


def test_dist_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("levsketch.dist")
