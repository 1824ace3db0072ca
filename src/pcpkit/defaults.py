"""Default seed for the seeded sampling routines."""

DEFAULT_SEED = 12345
