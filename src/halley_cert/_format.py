"""The text of every scalar the command line prints.

json and csv write floats with 17 significant digits, which parse back to
the same float (``float_text``, ``floats_text``), and csv cells follow
``csv_cell``; ``cli._render_json`` writes json's structure and its null,
true, false, NaN and Infinity. Human output follows ``human_text``, with 6
significant digits.
"""

import numpy as np

_FLOAT = "%.17g"

# float_text(x) writes the float x with 17 significant digits, enough for the
# text to parse back to x; it matches format(float(x), ".17g"). Being a bound
# method of the format string, it runs without a Python-level call per number.
float_text = _FLOAT.__mod__


def floats_text(values: list[float]) -> str:
    """float_text of each float in values, joined by ", ", with one % for
    the whole list."""
    return ", ".join([_FLOAT] * len(values)) % tuple(values)


def csv_cell(value) -> str:
    """A csv cell: empty for None, float_text for a float, else human_text."""
    if isinstance(value, (float, np.floating)):
        return float_text(value)
    return "" if value is None else human_text(value)


def csv_text(rows) -> str:
    """The rows, the header first, as csv lines."""
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in rows)


def human_text(value) -> str:
    """none, true, false, a float to 6 significant digits, or str(value)."""
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)
