"""The package exports exactly the names the README's "Library" section documents."""

import inspect
import re
from pathlib import Path

import cahnpav

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def test_every_export_resolves_and_is_documented():
    section = library_section()
    for name in cahnpav.__all__:
        assert getattr(cahnpav, name) is not None
        assert re.search(rf"\b{name}\b", section), f"{name} is exported but not in README Library"


def test_no_undeclared_exports():
    public = {
        name for name, value in vars(cahnpav).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(cahnpav.__all__)
