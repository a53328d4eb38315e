"""README's stated surface agrees with the package."""
import re
from pathlib import Path

import tailorder

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_point_names():
    """Every identifier that opens a backticked span in README's "Public
    entry points" section."""
    text = README.read_text()
    section = text.split("## Public entry points", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][A-Za-z_0-9]*)", section))


def test_public_entry_points_list_is_all():
    listed = _entry_point_names()
    # every export is listed, and every listed name the package has as an
    # attribute (methods, fields and parameters it has not) is exported
    assert set(tailorder.__all__) - listed == set()
    exported = {name for name in listed if hasattr(tailorder, name)}
    assert exported - set(tailorder.__all__) == set()
