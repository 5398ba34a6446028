"""Dataset distillation by attention matching.

Learns a small synthetic image set by matching spatial attention maps and
last-layer feature means between real and synthetic batches, embedded by
randomly initialized convolutional encoders.
"""

import dataclasses
import math
import numbers
from typing import NamedTuple

__version__ = "0.1.0"


class Bound(NamedTuple):
    """The range of a value: one of kind ``int`` must be an integer >= floor,
    one of kind ``float`` a finite number >= floor. ``meaning`` names it in
    errors and in the CLI's help."""

    meaning: str
    floor: int
    kind: type

    def check(self, name, value):
        """Raise ValueError naming ``name`` when ``value`` is out of range."""
        typed = (isinstance(value, numbers.Integral) if self.kind is int
                 else isinstance(value, numbers.Real) and value < math.inf)
        if not (typed and self.floor <= value):
            noun = "an integer" if self.kind is int else "a finite number"
            raise ValueError(f"{name} ({self.meaning}) must be {noun} >= {self.floor}, "
                             f"got {value}")


def bounded(default, meaning, floor, kind):
    """A dataclass field whose values ``check_fields`` holds to
    ``Bound(meaning, floor, kind)``; the one declaration of its range."""
    return dataclasses.field(default=default, metadata={"bound": Bound(meaning, floor, kind)})


def check_fields(config):
    """Raise ValueError naming the first bounded field of ``config`` out of
    range."""
    for f in dataclasses.fields(config):
        if "bound" in f.metadata:
            f.metadata["bound"].check(f.name, getattr(config, f.name))
