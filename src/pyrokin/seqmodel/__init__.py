"""Sequence modelling of TGA mass-loss curves: features, LSTM, tuning, metrics.

Names are imported from the submodules that define them. The line below loads
all five, so bench/layertrace.py finds every module it probes in sys.modules.
"""

from . import features, lstm, metrics, search, training  # noqa: F401
