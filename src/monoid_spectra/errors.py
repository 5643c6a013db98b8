"""Exceptions shared by the layers below the CLI."""


class UnsupportedRealization(Exception):
    """Raised when an operation is not available for the given carrier, or
    its input is past a fixed size guard; the CLI exits with code 3."""


class WindowTooLarge(UnsupportedRealization):
    """Raised for a window past ``monoid.MAX_WINDOW`` points, before any
    point is built; the CLI names the bound it was given."""
