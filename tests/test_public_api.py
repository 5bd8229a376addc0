"""The package namespace and ``zenosim.__all__`` list the same names."""

import inspect

import zenosim


def test_every_listed_name_resolves():
    missing = [name for name in zenosim.__all__ if not hasattr(zenosim, name)]
    assert missing == []


def test_no_duplicates():
    assert len(set(zenosim.__all__)) == len(zenosim.__all__)


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(zenosim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public - set(zenosim.__all__)) == []


def test_sorted_and_bounds_is_the_one_module():
    # __init__ derives the list from its import block; the submodules that block imports stay out, bounds aside.
    assert zenosim.__all__ == sorted(zenosim.__all__)
    assert [name for name in zenosim.__all__ if inspect.ismodule(getattr(zenosim, name))] == ["bounds"]
