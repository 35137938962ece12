"""Physical constants and default experimental parameters.

Internal unit system: angular frequencies in rad/us, time in us, length
in um, temperature in uK.  Interaction strengths are stored divided by
hbar, so every frequency-like quantity lives on the same rad/us scale.
A handy coincidence: 1 m/s equals exactly 1 um/us, so thermal speeds
need no extra conversion factor.
"""

import numpy as np

#: Conversion from a linear frequency in MHz to an angular one in rad/us.
MHZ = 2.0 * np.pi

#: Boltzmann constant in J/K (exact in the 2019 SI).
KB = 1.380649e-23

#: Mass of a ground-state 87Rb atom in kg: 86.909180527 u, with the
#: atomic mass constant 1.66053906892e-27 kg of CODATA 2022.
RB87_MASS_KG = 86.909180527 * 1.66053906892e-27

#: Van der Waals coefficient C6/hbar for a pair of Rb |97S_1/2> atoms,
#: in rad/us*um^6 (C6 = h x 39.5 THz um^6).
C6_97S = 2.0 * np.pi * 3.95e7

#: Radiative lifetime of Rb 97S_1/2 in ms, at room temperature and at 4.2 K.
LIFETIME_97S_300K_MS = 0.311
LIFETIME_97S_4K_MS = 1.10

#: Hyperfine qubit splitting of 87Rb in rad/us (6.8 GHz).
HYPERFINE_SPLITTING_RB87 = 2.0 * np.pi * 6.8e3

#: Trap r.m.s. position spreads in um (longitudinal / transverse),
#: representative of optical-tweezer qubit arrays.
SIGMA_Z0_DEFAULT = 1.47
SIGMA_PERP0_DEFAULT = 0.27

#: Default Rabi frequency of both drives in MHz.
DRIVE_DEFAULT_MHZ = 0.8

#: Default atomic temperature in uK.
TEMPERATURE_DEFAULT_UK = 10.0
