"""The JSON reader/writer of configs, checkpoints and sequences, and the int and field checks."""

import json
import math
import numbers
from dataclasses import asdict, fields


def _finite(text):
    # every JSON float, and the constants NaN, Infinity and -Infinity
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite number %s" % text)
    return value


def read_json(path):
    """The JSON object in path, every number finite; else ValueError("<path>: ...")."""
    with open(path, "rb") as fh:
        try:
            obj = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, _finite
            raise ValueError("%s: malformed JSON: %s" % (path, exc)) from None
    if not isinstance(obj, dict):
        raise ValueError("%s: must be a JSON object" % path)
    return obj


def write_json(path, obj):
    """Write obj indented, with sorted keys and a final newline; NaN or inf raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def check_int(name, value, low):
    """value if it is an integer >= low (a bool is none), else ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError("%s must be an int >= %d, got %r" % (name, low, value))
    return value


def check_fields(config):
    """ValueError naming the first field not of its annotated type (an int or float is no bool)."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = {int: numbers.Integral, float: numbers.Real}.get(f.type, f.type)
        if not isinstance(value, kind) or isinstance(value, bool) and f.type is not bool:
            raise ValueError("%s must be %s, got %r" % (f.name, f.type.__name__, value))


class JsonConfig:
    """to_json/from_json for a dataclass whose fields are int, float, str or bool."""

    def to_json(self, path):
        write_json(path, asdict(self))

    @classmethod
    def from_json(cls, path):
        """Load one JSON object; malformed JSON, an unknown field or a value the
        constructor refuses (check_fields: a wrong type) raises ValueError("<path>: ...")."""
        raw = read_json(path)
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("%s: unknown fields %s" % (path, unknown))
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
