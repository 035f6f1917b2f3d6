"""Frequency scale factors.

The library stores every physical quantity internally in SI base units:
volts, amperes, ohms, henries, farads, hertz, watts, seconds and kelvin.
Processor datasheets quote frequencies in MHz and GHz, so SKU tables and
frequency grids write them as ``100 * MHZ`` or ``3.6 * GHZ``.
"""

MHZ = 1e6
GHZ = 1e9
