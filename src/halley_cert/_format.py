"""The one text form of floats in json and csv output."""

# float_text(x) writes the float x with 17 significant digits, enough for the
# text to parse back to x; it matches format(float(x), ".17g"). Being a bound
# method of the format string, it runs without a Python-level call per number.
float_text = "%.17g".__mod__
