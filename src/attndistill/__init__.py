"""Dataset distillation by attention matching.

Learns a small synthetic image set by matching spatial attention maps and
last-layer feature means between real and synthetic batches, embedded by
randomly initialized convolutional encoders.
"""

import math
import numbers

__version__ = "0.1.0"


def check_fields(config, fields):
    """Raise ValueError naming the first field of ``config`` out of range.
    Each entry of ``fields`` is (name, meaning, floor, kind): a field of kind
    ``int`` must be an integer >= floor, one of kind ``float`` a finite
    number >= floor."""
    for name, meaning, floor, kind in fields:
        value = getattr(config, name)
        typed = (isinstance(value, numbers.Integral) if kind is int
                 else isinstance(value, numbers.Real) and value < math.inf)
        if not (typed and floor <= value):
            noun = "an integer" if kind is int else "a finite number"
            raise ValueError(f"{name} ({meaning}) must be {noun} >= {floor}, got {value}")
