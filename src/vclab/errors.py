"""Exception types shared across the package.

The CLI maps ConfigError to exit 2 and CapExceededError to exit 3, so keep
the hierarchy flat. Both are ValueErrors as well: to a library caller they
are bad arguments, whichever type it catches.
"""


class VclabError(Exception):
    """Base class for all package errors."""


class ConfigError(VclabError, ValueError):
    """A config file or run configuration failed validation."""


class CapExceededError(VclabError, ValueError):
    """A cap (set size, dimension, enumeration budget, float range) was exceeded."""


class IndeterminateLabelingError(VclabError):
    """The margin LP finished with an optimal margin too close to zero to
    classify the labeling as realizable or not."""

    def __init__(self, labeling, margin):
        self.labeling = tuple(labeling)
        self.margin = float(margin)
        super().__init__(
            f"labeling {self.labeling} indeterminate: optimal margin "
            f"{self.margin:.3e} within tolerance of 0"
        )
