import dataclasses

import pytest

from memvo.memory import MemoryPolicy
from memvo.synthetic import SyntheticSpec
from memvo.training import TrainConfig

# one valid instance of each frozen config, to vary one field at a time
BASES = {
    TrainConfig: TrainConfig(),
    SyntheticSpec: SyntheticSpec(),
    MemoryPolicy: MemoryPolicy(),
}


@pytest.mark.parametrize("cls, name, bad", [
    (TrainConfig, "batch_size", 1.5),
    (TrainConfig, "iterations", True),
    (TrainConfig, "window_length", 3.5),
    (TrainConfig, "seed", 1.5),
    (TrainConfig, "memory_size", 2.5),
    (TrainConfig, "memory_require_both", "no"),
    (TrainConfig, "base_lr", True),
    (TrainConfig, "preset", 3),
    (SyntheticSpec, "frames", 3.5),
    (SyntheticSpec, "height", 16.5),
    (SyntheticSpec, "seed", "1"),
    (SyntheticSpec, "noise", None),
    (MemoryPolicy, "max_slots", 2.5),
    (MemoryPolicy, "require_both", "yes"),
    (MemoryPolicy, "theta_rot", False),
])
def test_bad_field_type_or_size_named_when_built_and_replaced(cls, name, bad):
    base = BASES[cls]
    kwargs = {f.name: getattr(base, f.name) for f in dataclasses.fields(base) if f.init}
    kwargs[name] = bad
    with pytest.raises(ValueError, match="^%s must be " % name):
        cls(**kwargs)
    with pytest.raises(ValueError, match="^%s must be " % name):
        dataclasses.replace(base, **{name: bad})
