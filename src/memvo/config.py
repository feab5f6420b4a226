"""The JSON reader/writer shared by configs, checkpoints and sequences, and the int check."""

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


def _fits(value, kind):
    # a JSON bool is a Python int but no valid int; an int is a valid float
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def check_int(name, value, low):
    """value if it is an integer >= low (a bool is none), else ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError("%s must be an int >= %d, got %r" % (name, low, value))
    return value


class JsonConfig:
    """to_json/from_json for a dataclass whose fields are int, float, str or bool."""

    def to_json(self, path):
        write_json(path, asdict(self))

    @classmethod
    def from_json(cls, path):
        """Load one JSON object; every bad input raises ValueError("<path>: ...").

        Rejected: malformed JSON, unknown fields, values of the wrong JSON
        type and values the constructor refuses.
        """
        raw = read_json(path)
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(raw) - set(kinds))
        if unknown:
            raise ValueError("%s: unknown fields %s" % (path, unknown))
        for name, value in raw.items():
            if not _fits(value, kinds[name]):
                raise ValueError("%s: %s must be %s, got %r"
                                 % (path, name, kinds[name].__name__, value))
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
