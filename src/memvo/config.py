"""JSON round trip shared by the flat config dataclasses."""

import json
from dataclasses import asdict, fields


def _fits(value, kind):
    # a JSON bool is a Python int but no valid int; an int is a valid float
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


class JsonConfig:
    """to_json/from_json for a dataclass whose fields are int, float, str or bool."""

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        """Load one JSON object; every bad input raises ValueError("<path>: ...").

        Rejected: malformed JSON, unknown fields, values of the wrong JSON
        type and values the constructor refuses.
        """
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ValueError("%s: %s" % (path, exc)) from None
        if not isinstance(raw, dict):
            raise ValueError("%s: must be a JSON object" % path)
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
