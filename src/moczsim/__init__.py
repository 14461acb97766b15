"""Integrated sensing and communication simulator for zero-pattern modulation.

Packets of K bits are carried by the zeros of a transmit polynomial, decoded
noncoherently from received-polynomial magnitudes, and reused as radar pulses
through a hybrid-beamforming mmWave front end.  The package exports each
module's ``__all__``; the modules' lists are the only lists of public names.
"""

from . import channel, dizet, huffman, radar, simulate
from .channel import *  # noqa: F403
from .dizet import *  # noqa: F403
from .huffman import *  # noqa: F403
from .radar import *  # noqa: F403
from .simulate import *  # noqa: F403

__all__ = channel.__all__ + dizet.__all__ + huffman.__all__ + radar.__all__ + simulate.__all__

__version__ = "0.1.0"
