"""Mixed-dimensional finite elements.

Couples 2D/3D elastic continua with beam and plate models through Nitsche
interface terms, on Lagrange or B-spline bases, conforming or not.
"""

__version__ = "0.1.0"
