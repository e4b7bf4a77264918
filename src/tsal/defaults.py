"""Built-in settings that both the library functions and the CLI's
argument parser use. This module imports nothing, so that ``tsal
--help`` can show the defaults without loading numpy."""

DEFAULT_T_TOTAL_MS = 5000.0
DEFAULT_SLICES = 5
DEFAULT_SPATIAL_WEIGHT = 1.0     # per pixel
DEFAULT_TEMPORAL_WEIGHT = 0.01   # per millisecond
DEFAULT_RHO = 0.5                # revisit weight multiplier per prior visit
DEFAULT_JITTER_PX = 1.5
