"""The one text form of floats in json and csv output."""

_FLOAT = "%.17g"

# float_text(x) writes the float x with 17 significant digits, enough for the
# text to parse back to x; it matches format(float(x), ".17g"). Being a bound
# method of the format string, it runs without a Python-level call per number.
float_text = _FLOAT.__mod__


def floats_text(values: list[float]) -> str:
    """float_text of each float in values, joined by ", ", with one % for
    the whole list."""
    return ", ".join([_FLOAT] * len(values)) % tuple(values)
