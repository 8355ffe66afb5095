"""Every public error class is raised by the package and tested as raised."""

import re
from pathlib import Path

import pytest

from negtype import errors

ROOT = Path(__file__).resolve().parent.parent
SOURCE = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "src" / "negtype").glob("*.py"))
TESTS = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("test_*.py"))


@pytest.mark.parametrize("name", [n for n in errors.__all__ if n != "NegTypeError"])
def test_error_class_is_raised_and_tested(name):
    assert re.search(rf"\braise {name}\b", SOURCE), f"no code raises {name}"
    # the class named anywhere in a pytest.raises(...) argument, a tuple included
    assert re.search(rf"pytest\.raises\(\(?[\w\s,.]*\b{name}\b", TESTS), (
        f"no pytest.raises({name}) under tests/"
    )
