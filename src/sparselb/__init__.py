"""Load balancing with occasional queue updates: finite-N event simulation,
fluid-limit integration, stationary fixed points, and exact small-N chains
that cross-validate each other."""
