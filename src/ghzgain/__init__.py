"""Frequency-estimation gain of GHZ probes over separable probes when
state preparation and readout times count against the duty cycle."""

from .bath import *
from .errors import *
from .gain import *
from .opttime import *
from .qfi import *
from .sweep import *

__version__ = "0.1.0"
