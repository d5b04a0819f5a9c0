"""The public surface is what the README documents: every exported name, and
every public method, property and field of the classes a caller queries,
appears in one of its code spans or code blocks."""

import dataclasses
import re
from pathlib import Path

import pytest

import avgcut
from avgcut import ContractionState, LinkageTable, Partition, RootedTree

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _code_words(text: str) -> set[str]:
    """The identifiers inside the fenced blocks and inline code spans."""
    blocks = re.findall(r"```[^\n]*\n(.*?)```", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


_DOCUMENTED = _code_words(_README)


def _public_members(cls) -> list[str]:
    names = {name for name in dir(cls) if not name.startswith("_")}
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))
    return sorted(names)


def test_every_exported_name_is_documented():
    missing = [name for name in avgcut.__all__ if name not in _DOCUMENTED]
    assert not missing, f"in avgcut.__all__ but not in README.md: {missing}"


@pytest.mark.parametrize("cls", [ContractionState, RootedTree, LinkageTable, Partition],
                         ids=lambda cls: cls.__name__)
def test_every_public_member_is_documented(cls):
    members = _public_members(cls)
    assert members
    missing = [name for name in members if name not in _DOCUMENTED]
    assert not missing, f"public on {cls.__name__} but not in README.md: {missing}"


def test_the_scan_reads_code_only():
    assert _code_words("a `b.c` d\n```python\ne(f)\n```\n") == {"b", "c", "e", "f"}
