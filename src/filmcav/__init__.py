"""Desk-scale simulator and stability analyzer for thin-film lubrication
coupled to a dispersed micro-bubble field.

The film pressure obeys a compressible Reynolds equation whose mixture
density and viscosity depend on the local bubble radius; the radius field
evolves by spherical-bubble dynamics driven by that same pressure.  The
package provides the coupled transient integrator, a direct stationary
solver, certified linearized-operator spectra, a modal sliding-speed
instability analysis, and a CLI for runs, sweeps, and reports.

Every name is imported from its module, ``filmcav.<module>.<name>``: the
package namespace re-exports nothing, so importing one layer loads only
the layers it imports.
"""

__version__ = "0.1.0"
