"""Unit conversion constants.

All internal computation uses meters and seconds. Nautical miles, feet and
knots appear only when reading or writing files and in metric reports.
"""

NM_TO_M = 1852.0
FT_TO_M = 0.3048
KT_TO_MPS = NM_TO_M / 3600.0

MPS_TO_KT = 1.0 / KT_TO_MPS
